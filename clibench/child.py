"""One measuring process: set up a workload, run CLI pipeline passes, check outputs.

Started by ``run.py`` with the BLAS pools and ``RANK_THREADS`` pinned to one
thread. Prints one JSON object as its last stdout line. ``--mode setup``
stops once the inputs are written, so ``run.py`` can time set-up in fresh
processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import checks
from tracing import Tracer
from workloads import WORKLOADS, dataset_dirs, pass_commands, sample_commands

ROOT = Path(__file__).resolve().parent.parent


def import_coastrank():
    sys.path.insert(0, str(ROOT / "src"))
    import coastrank.cli

    where = Path(coastrank.cli.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"coastrank imported from {where}, not from {ROOT / 'src'}")
    return coastrank.cli


class Operations:
    """Attempted and failed pipeline commands; one command is one operation.

    Only pass commands count, so every pass adds the same operations and the
    failed share does not depend on how many passes fit in a run.
    """

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0

    def run(self, argv: list[str]) -> None:
        self.attempted += 1
        try:
            code = self.cli.main(argv)
        except Exception:  # a traceback is a failed operation, not a dead benchmark
            traceback.print_exc()
            code = -1
        if code != 0:
            self.failed += 1
            print(f"failed ({code}): coastrank {' '.join(argv)}", file=sys.stderr)

    def run_pass(self, commands) -> float:
        t0 = time.perf_counter()
        for argv in commands:
            self.run(argv)
        return time.perf_counter() - t0


def digests_of(d: Path, names) -> dict[str, str]:
    return {
        name: hashlib.sha256((d / name).read_bytes()).hexdigest() if (d / name).exists() else ""
        for name in names
    }


def _layer_metrics(tracer, setup_root: int, traced: list, untraced: list[float]) -> dict:
    """Every per-layer metric, as the mean over the traced passes (absent layers read 0).

    ``traced`` holds (root span, counters) per traced pass.
    """
    per_pass = []
    for root, counts in traced:
        totals = tracer.layer_totals(root)

        def get(name, field):
            return totals.get(name, {}).get(field, 0)

        out = {f"cli.{c}.s": get(f"cli.{c}", "s") for c in ("fit", "prune", "eval", "depth", "anomaly")}
        out["cli.self_s"] = sum(t["self_s"] for n, t in totals.items() if n.startswith("cli."))
        for name in SPAN_SECONDS:
            out[f"{name}.s"] = get(name, "s")
        for name in SPAN_CALLS:
            out[f"{name}.calls"] = get(name, "calls")
        for name in SPAN_SELF:
            out[f"{name}.self_s"] = get(name, "self_s")
        for key in COUNTERS:
            out[key] = counts.get(key, 0)
        out["trace.spans"] = sum(t["calls"] for t in totals.values())
        out["trace.unattributed_s"] = tracer.self_time(root)
        per_pass.append(out)
    metrics = {k: statistics.fmean(p[k] for p in per_pass) for k in per_pass[0]}
    metrics["models.sample_mixture.s"] = tracer.layer_totals(setup_root).get(
        "models.sample_mixture", {}).get("s", 0.0)
    traced_s = statistics.median(tracer.duration(root) for root, _ in traced)
    metrics["trace.pass_s"] = traced_s
    metrics["trace.untraced_pass_s"] = statistics.median(untraced)
    metrics["trace.overhead_share"] = traced_s / statistics.median(untraced) - 1.0
    return metrics


SPAN_SECONDS = ("fileio.load_rankings", "fileio.sha256_of", "perms.comparison_matrix",
                "perms.subset", "perms.empirical", "cells.membership_mask", "tree.grow",
                "tree.prune_sequence", "tree.route_sample", "consensus.aggregate",
                "consensus.exact_kemeny", "consensus.copeland_median",
                "consensus.depth_climb_median", "transport.distortion_report",
                "transport.wasserstein", "analysis.local_depths")
SPAN_CALLS = ("cells.membership_mask", "consensus.aggregate", "consensus.exact_kemeny",
              "consensus.copeland_median", "consensus.depth_climb_median",
              "transport.wasserstein")
SPAN_SELF = ("tree.grow", "tree.prune_sequence", "transport.distortion_report")
COUNTERS = ("fileio.rows_parsed", "perms.comparison_matrix.bytes", "perms.subset.rows",
            "cells.contains.calls", "tree.splits", "tree.leaves", "tree.collapses",
            "tree.route_sample.rows", "transport.support_pairs", "analysis.local_depths.queries")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["setup", "run"], required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.time() just before this process was started")
    args = ap.parse_args(argv)

    cli = import_coastrank()
    wl = WORKLOADS[args.workload]
    d = Path(args.workdir)
    d.mkdir(parents=True, exist_ok=True)
    ops = Operations(cli)
    tracer = Tracer() if args.trace else None

    def setup():
        for cmd in sample_commands(wl, args.seed, d):
            if cli.main(cmd) != 0:
                raise SystemExit(f"set-up failed: coastrank {' '.join(cmd)}")

    if tracer is None:
        setup()
    else:
        with tracer.installed(), tracer.span("setup") as setup_root:
            setup()
    setup_s = time.time() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    dirs = dataset_dirs(wl, d)
    commands = [pass_commands(wl, dk) for dk in dirs]
    ops.run_pass(commands[0])  # warm-up: caches, lazy imports, allocator
    digests = {0: [digests_of(dirs[0], wl.outputs)]}  # data set -> digests after each pass
    times: list[float] = []  # untraced passes
    traced: list = []  # (root span, counters) of each traced pass
    t_start = time.perf_counter()
    last = 0.0
    j = 0
    # whole passes only, stopping before a pass would run past the measuring
    # window. Pass j runs on data set j (mod the number of data sets); a traced
    # run alternates a traced and an untraced pass on each data set.
    while (not times or (tracer is not None and not traced)
           or time.perf_counter() - t_start + last <= args.seconds):
        k = (j // 2 if tracer is not None else j) % len(dirs)
        if tracer is not None and j % 2 == 0:
            tracer.counts = Counter()
            with tracer.installed(), tracer.span("pass") as root:
                last = ops.run_pass(commands[k])
            traced.append((root, tracer.counts))
        else:
            last = ops.run_pass(commands[k])
            times.append(last)
        digests.setdefault(k, []).append(digests_of(dirs[k], wl.outputs))
        j += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = checks.check(wl, d, digests)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "setup_s": setup_s,
        "pass_times": times,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = _layer_metrics(tracer, setup_root, traced, times)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
