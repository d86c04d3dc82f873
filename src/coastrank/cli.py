"""Command-line surface: sampling, fitting, pruning, diagnostics, reports.

Every subcommand that writes files also writes ``<out>.manifest.json``
recording argv, config, input/output digests, and wall times, so a run can
be audited and re-executed; rerunning a manifest's command reproduces its
data outputs byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time

from .analysis import (
    anomaly_table_to_csv,
    co_membership,
    co_membership_to_csv,
    ddplot_table,
    depth_table_to_csv,
    homogeneity_test,
    local_depths,
    smooth_cell,
)
from .errors import RankingError, RejectedInputError
from .fileio import (
    RunManifest,
    load_rankings,
    read_json,
    sha256_of,
    write_json,
    write_manifest,
    write_rankings,
)
from .models import MixtureSpec, sample_mixture
from .perms import DiscreteRankingDistribution, RankingSample
from .transport import distortion_reports
from .tree import CoastTree, grow, prune_sequence, select_subtree


def _fmt(x: float) -> str:
    return "%.12g" % x


def _fmt_opt(x: float | None) -> str:
    """A number, or a blank field where it was not computed."""
    return "" if x is None else _fmt(x)


def _flag(b: bool | None):
    """1/0 for an inequality that held/failed, blank where it was not checked."""
    return "" if b is None else int(b)


def _manifest_path(out_path: str) -> str:
    return f"{out_path}.manifest.json"


def _finish(args, inputs: dict, outputs: dict, t0: float, extra_times=None, counters=None) -> int:
    """Digest inputs/outputs and drop the manifest next to the primary output."""
    config = {k: v for k, v in vars(args).items() if not k.startswith("_")}
    times = {"total": time.perf_counter() - t0}
    if extra_times:
        times.update(extra_times)
    manifest = RunManifest(
        command=args._command,
        argv=tuple(args._argv),
        seed=getattr(args, "seed", None),
        config=config,
        inputs={role: sha256_of(p) for role, p in inputs.items()},
        outputs={role: sha256_of(p) for role, p in outputs.items()},
        wall_times=times,
        counters=counters or {},
    )
    primary = next(iter(outputs.values()))
    write_manifest(manifest, args.manifest or _manifest_path(primary))
    return 0


def _load_tree(path: str, s: RankingSample) -> CoastTree:
    """The tree document at path, refused unless it is over the sample's items."""
    return CoastTree.from_json_obj(read_json(path), items=s.n)


# --- subcommand handlers -----------------------------------------------------------


def cmd_sample(args) -> int:
    t0 = time.perf_counter()
    spec = MixtureSpec.from_json_obj(read_json(args.spec))
    if args.seed is not None:
        spec = spec.with_seed(args.seed)
    s = sample_mixture(spec, args.size)
    write_rankings(s, args.out, format=args.format)
    return _finish(args, {"spec": args.spec}, {"rankings": args.out}, t0)


def cmd_fit(args) -> int:
    t0 = time.perf_counter()
    s = load_rankings(args.input, format=args.format)
    tree, trace = grow(
        s,
        epsilon=args.epsilon,
        rule=args.rule,
        max_leaves=args.max_leaves,
        aggregator=args.aggregator,
        seed=args.seed,
        one_split_per_iter=args.one_split_per_iter,
    )
    write_json(tree.to_json_obj(), args.out)
    outputs = {"tree": args.out}
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iteration", "leaf_count", "criterion", "splits"])
            for st in trace.steps:
                splits = ";".join(
                    f"{nid}:{i + 1}<{j + 1}" for nid, (i, j) in st.splits
                )
                w.writerow([st.iteration, st.leaf_count, _fmt(st.criterion), splits])
        outputs["trace"] = args.trace
    return _finish(
        args,
        {"rankings": args.input},
        outputs,
        t0,
        extra_times={"grow": trace.total_wall_time},
    )


def cmd_prune(args) -> int:
    t0 = time.perf_counter()
    s = load_rankings(args.input, format=args.format)
    tree = _load_tree(args.tree, s)
    seq = prune_sequence(tree, s)
    chosen = select_subtree(seq, args.lam)
    write_json(chosen.to_json_obj(), args.out)
    return _finish(
        args, {"tree": args.tree, "rankings": args.input}, {"tree": args.out}, t0
    )


def cmd_eval(args) -> int:
    """Distortion report over the whole weakest-link sequence, one row per step."""
    t0 = time.perf_counter()
    s = load_rankings(args.input, format=args.format)
    tree = _load_tree(args.tree, s)
    dist = DiscreteRankingDistribution.empirical(s)
    seq = prune_sequence(tree, s)
    steps = []
    for sub in seq:
        atoms = sub.crd().atoms
        steps.append(([c for _, _, c in atoms], [m for _, m, _ in atoms]))
    reports = distortion_reports(dist, steps)
    rows = []
    for step, (sub, rep) in enumerate(zip(seq, reports)):
        rows.append(
            [
                step,
                sub.leaf_count,
                _fmt_opt(rep.w),
                _fmt_opt(rep.e),
                _fmt(rep.e_prime),
                _fmt(rep.e_dprime),
                _flag(rep.w_le_e),
                _flag(rep.e_le_two_e_prime),
                _flag(rep.e_le_e_dprime),
            ]
        )
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["step", "leaves", "w", "e", "e_prime", "e_dprime",
             "w_le_e", "e_le_two_e_prime", "e_le_e_dprime"]
        )
        w.writerows(rows)
    counters = {
        "distinct_cells": len({c for cells, _ in steps for c in cells}),
        "steps": [
            {"pivots": r.pivots, "bland_pivots": r.bland_pivots, "w_exact": r.w_exact}
            for r in reports
        ],
    }
    return _finish(
        args, {"tree": args.tree, "rankings": args.input}, {"report": args.out}, t0,
        counters=counters,
    )


def _scoring_inputs(args):
    """Tree, fit sample and query sample of ``depth``, ``anomaly`` and ``ddplot``."""
    fit = load_rankings(args.fit, format=args.format)
    return _load_tree(args.tree, fit), fit, load_rankings(args.query, format=args.format)


def _finish_scoring(args, role: str, t0: float) -> int:
    inputs = {"tree": args.tree, "fit": args.fit, "query": args.query}
    return _finish(args, inputs, {role: args.out}, t0)


def cmd_depth(args) -> int:
    t0 = time.perf_counter()
    depth_table_to_csv(local_depths(*_scoring_inputs(args)), args.out)
    return _finish_scoring(args, "depths", t0)


def cmd_anomaly(args) -> int:
    t0 = time.perf_counter()
    anomaly_table_to_csv(local_depths(*_scoring_inputs(args)), args.out)
    return _finish_scoring(args, "scores", t0)


def cmd_ddplot(args) -> int:
    t0 = time.perf_counter()
    depth_table_to_csv(ddplot_table(*_scoring_inputs(args), args.cell), args.out)
    return _finish_scoring(args, "table", t0)


def cmd_smooth(args) -> int:
    t0 = time.perf_counter()
    s = load_rankings(args.input, format=args.format)
    tree = _load_tree(args.tree, s)
    if args.cell not in set(tree.frontier):
        raise RejectedInputError(f"cell {args.cell} is not a leaf of the tree")
    cell = tree.node(args.cell).cell
    sm = smooth_cell(s, cell, method=args.method)
    doc = {
        "n": tree.n,
        "cell_id": args.cell,
        "constraints": cell.to_json_obj(),
        "method": sm.method.value,
        "z": sm.z,
        "z_factorized": sm.z_factorized,
        "marginals": [[float(v) for v in row] for row in sm.marginals.p],
        "probabilities": sm.to_json_obj() if len(sm.scores) else None,
    }
    write_json(doc, args.out)
    return _finish(
        args, {"tree": args.tree, "rankings": args.input}, {"smoothed": args.out}, t0
    )


def _depth_column(path: str, column: str) -> list[float]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or column not in reader.fieldnames:
            have = ", ".join(reader.fieldnames or [])
            raise RejectedInputError(
                f"{path}: no column {column!r} (columns: {have})"
            )
        return [float(row[column]) for row in reader]


def cmd_hom_test(args) -> int:
    t0 = time.perf_counter()
    a = _depth_column(args.a, args.column)
    b = _depth_column(args.b, args.column)
    res = homogeneity_test(a, b, method=args.method)
    print(
        f"u={_fmt(res.u_statistic)}"
        + ("" if res.z is None else f" z={_fmt(res.z)}")
        + f" p={_fmt(res.p_value)} method={res.method}"
    )
    if args.out:
        write_json(
            {
                "u_statistic": res.u_statistic,
                "z": res.z,
                "p_value": res.p_value,
                "method": res.method,
                "n_a": len(a),
                "n_b": len(b),
            },
            args.out,
        )
        return _finish(args, {"a": args.a, "b": args.b}, {"result": args.out}, t0)
    return 0


def cmd_comembership(args) -> int:
    t0 = time.perf_counter()
    s = load_rankings(args.input, format=args.format)
    tree = _load_tree(args.tree, s)
    co_membership_to_csv(co_membership(tree, s), args.out)
    return _finish(
        args, {"tree": args.tree, "rankings": args.input}, {"matrix": args.out}, t0
    )


# --- parser ------------------------------------------------------------------------


def _add_format(p) -> None:
    p.add_argument(
        "--format", choices=["ordering", "ranks"], default="ordering",
        help="ranking file row convention (default: ordering)",
    )


def _add_out(p, help="output path") -> None:
    p.add_argument("--out", required=True, help=help)
    p.add_argument("--manifest", default=None, help="manifest path (default: <out>.manifest.json)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process.

    Handlers are looked up by command name when main runs, not bound into
    the parser, so a rebound ``cmd_*`` function takes effect.
    """
    parser = argparse.ArgumentParser(
        prog="coastrank",
        description="Learn and analyze consensus ranking distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a labeled sample from a mixture spec JSON")
    p.add_argument("--spec", required=True, help="mixture spec JSON path")
    p.add_argument("--size", required=True, type=int)
    p.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    _add_format(p)
    _add_out(p, help="ranking file to write")

    p = sub.add_parser("fit", help="grow a partition tree from a ranking file")
    p.add_argument("--input", required=True, help="ranking file")
    p.add_argument("--epsilon", required=True, type=float)
    p.add_argument("--rule", choices=["min-distortion", "balanced"], default="min-distortion")
    p.add_argument("--max-leaves", type=int, default=None)
    p.add_argument("--one-split-per-iter", action="store_true")
    p.add_argument(
        "--aggregator", choices=["exact", "copeland", "depth-climb", "auto"],
        default="auto",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for aggregation tie-breaks")
    p.add_argument("--trace", default=None, help="growth trace CSV path")
    _add_format(p)
    _add_out(p, help="tree JSON to write")

    p = sub.add_parser("prune", help="weakest-link prune and select a subtree")
    p.add_argument("--tree", required=True)
    p.add_argument("--input", required=True, help="ranking file the tree was fit on")
    p.add_argument("--lambda", dest="lam", required=True, type=float,
                   help="per-leaf penalty for subtree selection")
    _add_format(p)
    _add_out(p, help="selected tree JSON")

    p = sub.add_parser("eval", help="distortion report per pruning step")
    p.add_argument("--tree", required=True)
    p.add_argument("--input", required=True)
    _add_format(p)
    _add_out(p, help="report CSV")

    for name in ("depth", "anomaly"):
        p = sub.add_parser(name, help=f"{name} of query rankings under a fitted tree")
        p.add_argument("--tree", required=True)
        p.add_argument("--fit", required=True, help="ranking file the tree was fit on")
        p.add_argument("--query", required=True, help="ranking file to score")
        _add_format(p)
        _add_out(p)

    p = sub.add_parser("ddplot", help="depth-vs-depth table against one reference leaf")
    p.add_argument("--tree", required=True)
    p.add_argument("--fit", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--cell", required=True, type=int, help="reference leaf node id")
    _add_format(p)
    _add_out(p)

    p = sub.add_parser("smooth", help="smoothed distribution over one leaf cell")
    p.add_argument("--tree", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--cell", required=True, type=int, help="leaf node id")
    p.add_argument(
        "--method", choices=["enumeration", "factorized"], default="enumeration"
    )
    _add_format(p)
    _add_out(p, help="smoothed distribution JSON")

    p = sub.add_parser("hom-test", help="rank-sum homogeneity test on two depth CSVs")
    p.add_argument("--a", required=True, help="first depth CSV")
    p.add_argument("--b", required=True, help="second depth CSV")
    p.add_argument("--column", default="local_depth")
    p.add_argument("--method", choices=["normal", "exact"], default="normal")
    p.add_argument("--out", default=None, help="optional result JSON")
    p.add_argument("--manifest", default=None)

    p = sub.add_parser("comembership", help="same-leaf indicator matrix for a sample")
    p.add_argument("--tree", required=True)
    p.add_argument("--input", required=True)
    _add_format(p)
    _add_out(p)

    return parser


def main(argv=None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(raw)
    args._argv = raw
    args._command = args.command
    handler = globals()[f"cmd_{args.command.replace('-', '_')}"]
    try:
        return handler(args)
    except RankingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
