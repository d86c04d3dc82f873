"""Benchmark of the coastrank CLI pipeline on seeded mixture workloads.

    python3 clibench/run.py --workload fit-n50 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (``src/coastrank`` must be there;
nothing is installed). Set-up is timed in fresh interpreter processes, then
one measuring process runs an untimed warm-up pass and whole timed passes
for ``--seconds``, checks the outputs and reports. The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer metrics of the
traced passes with ``--trace 1``. See clibench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh processes that only set up, timed on top of the measuring process's own set-up.
SETUP_REPEATS = 2


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
                "RANK_THREADS"):
        env[var] = "1"
    return env


def run_child(args, mode: str, workdir: Path) -> dict:
    argv = [sys.executable, str(HERE / "child.py"), "--mode", mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--workdir", str(workdir), "--spawned-at", repr(time.time())]
    if mode == "run":
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=args.seconds + 150)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "coastrank" / "cli.py").is_file():
        print(f"no coastrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".clibench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:  # set-up is an end-to-end metric: only untraced runs repeat it
            setups = [run_child(args, "setup", workdir / f"setup{k}")["setup_s"]
                      for k in range(SETUP_REPEATS)]
        res = run_child(args, "run", workdir / "run")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it holds leftovers

    setups.append(res["setup_s"])
    if args.trace:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        units = {m["name"]: m["unit"] for m in spec}
        if set(units) != set(res["layers"]):
            print(f"per-layer metrics differ from BENCHMARK.json: "
                  f"{sorted(set(units) ^ set(res['layers']))}", file=sys.stderr)
            return 1
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res["layers"].items()}
    else:
        metrics = {
            "pass_s": {"value": statistics.median(res["pass_times"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    print(f"passes: {len(res['pass_times'])} "
          f"[{', '.join(f'{t:.3f}' for t in res['pass_times'])}] s; "
          f"set-ups [{', '.join(f'{t:.3f}' for t in setups)}] s")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
