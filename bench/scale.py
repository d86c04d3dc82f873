"""Scaling in N of coastrank's stages, written to ``BENCH_scale.json``.

    python3 bench/scale.py                      # every n and N below
    python3 bench/scale.py --sizes 10000 100000 --out /tmp/scale.json

Run it from anywhere; it imports coastrank from the ``src`` directory next
to this file and needs numpy only. For each n in ``ITEMS`` and each N, one
child process draws a ranking file with ``coastrank sample`` from a fixed
Mallows mixture; that is the ``sample`` stage. Then ``REPEATS`` fresh child
processes each import coastrank and time one ``load_rankings`` of that
file; that is the ``load`` stage. For n in ``GROW_ITEMS``, one more child
loads the file and times ``grow`` to ``GROW_LEAVES`` leaves (epsilon 0,
the ``auto`` medians), writing the tree; that is the ``grow`` stage. A
child loads the file and the tree and times ``prune_sequence``; that is the
``prune`` stage. A last child times ``grow`` as the ``grow`` stage does but
with ``one_split_per_iter``, one split per round; that is the
``grow-one-split`` stage. Once a ``grow``, ``prune`` or ``grow-one-split``
run of some n takes longer than ``CAP_S`` seconds, the larger N of that n
run none of the three. A row of the output is

    {"workload": "n20-N1000000", "stage": "load", "wall_s": ..., "peak_mb": ...,
     "counters": {"rows": ...}}

A ``sample`` row's ``wall_s`` is the time of the one ``coastrank sample``
command, from the call of its ``main`` to its return: drawing, writing the
file and its manifest. A ``load`` row's ``wall_s`` is the median of the
children's load times; a ``grow``, ``prune`` or ``grow-one-split`` row's is the
stage call alone, without the load. ``peak_mb`` is the child's ``ru_maxrss``,
the largest among them for ``load``, so it counts the interpreter and numpy
(about 30 MB), and for the other stages the loaded sample, as well as the
stage. Every child runs with one BLAS thread. The files go to a temporary
directory that is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
ITEMS = (8, 20, 50)
SIZES = (10**4, 10**5, 10**6)
REPEATS = 3
GROW_ITEMS = (20, 50)
GROW_LEAVES = 16
#: A grow, prune or grow-one-split run longer than this, in seconds, ends the
#: larger N of its n.
CAP_S = 300
#: Seed of the mixture centers and of the draws.
SEED = 20260307

LOAD = """
import json, resource, sys, time
from coastrank.fileio import load_rankings
start = time.perf_counter()
sample = load_rankings(sys.argv[1])
wall = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"wall_s": wall, "peak_mb": peak, "rows": len(sample)}))
"""

SAMPLE = """
import json, resource, sys, time
from coastrank.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
wall = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"wall_s": wall, "peak_mb": peak}))
sys.exit(code)
"""


GROW = """
import json, resource, sys, time
from coastrank.fileio import load_rankings
from coastrank.tree import grow
sample = load_rankings(sys.argv[1])
start = time.perf_counter()
tree, trace = grow(sample, epsilon=0.0, max_leaves=int(sys.argv[3]),
                   one_split_per_iter=sys.argv[4] == "one-split")
wall = time.perf_counter() - start
with open(sys.argv[2], "w") as fh:
    json.dump(tree.to_json_obj(), fh)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"wall_s": wall, "peak_mb": peak, "rows": len(sample),
                  "leaves": tree.leaf_count,
                  "gram_rows": sum(step.gram_rows for step in trace.steps)}))
"""

PRUNE = """
import json, resource, sys, time
from coastrank.fileio import load_rankings
from coastrank.tree import CoastTree, prune_sequence
sample = load_rankings(sys.argv[1])
with open(sys.argv[2]) as fh:
    tree = CoastTree.from_json_obj(json.load(fh))
start = time.perf_counter()
seq = prune_sequence(tree, sample)
wall = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"wall_s": wall, "peak_mb": peak, "rows": len(sample), "subtrees": len(seq)}))
"""


def spec(n: int) -> dict:
    """Four equal Mallows components with seeded centers, as 1-based rank vectors."""
    rng = np.random.default_rng([SEED, n])
    centers = [[int(r) + 1 for r in rng.permutation(n)] for _ in range(4)]
    return {"n": n, "seed": SEED,
            "components": [{"type": "mallows", "center": c, "phi": 0.5, "mix": 0.25}
                           for c in centers]}


def child(args: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"child {args[:2]} failed:\n{done.stderr}")
    return done.stdout


def row(workload: str, stage: str, run: dict, **counters) -> dict:
    return {"workload": workload, "stage": stage, "wall_s": round(run["wall_s"], 4),
            "peak_mb": round(run["peak_mb"], 1), "counters": counters}


def stage_rows(n: int, sizes, tmp: Path) -> list[dict]:
    """The ``sample`` and ``load`` rows of n items at each N, and the ``grow``,
    ``prune`` and ``grow-one-split`` rows for n in GROW_ITEMS up to the first N
    past CAP_S."""
    spec_path = tmp / f"spec-n{n}.json"
    spec_path.write_text(json.dumps(spec(n)))
    rows, grows = [], n in GROW_ITEMS
    for size in sizes:
        path, tree = tmp / f"n{n}-N{size}.rnk", tmp / f"n{n}-N{size}.json"
        workload = f"n{n}-N{size}"
        drawn = json.loads(child(["-c", SAMPLE, "sample", "--spec", str(spec_path),
                                  "--size", str(size), "--out", str(path)]))
        runs = [json.loads(child(["-c", LOAD, str(path)])) for _ in range(REPEATS)]
        new = [row(workload, "sample", drawn, rows=size),
               row(workload, "load", {"wall_s": statistics.median(r["wall_s"] for r in runs),
                                      "peak_mb": max(r["peak_mb"] for r in runs)},
                   rows=runs[0]["rows"])]
        if grows:
            grow_args = ["-c", GROW, str(path), str(tree), str(GROW_LEAVES)]
            grown = json.loads(child([*grow_args, "every-leaf"]))
            pruned = json.loads(child(["-c", PRUNE, str(path), str(tree)]))
            one = json.loads(child([*grow_args, "one-split"]))
            new += [row(workload, "grow", grown, rows=grown["rows"], leaves=grown["leaves"],
                        gram_rows=grown["gram_rows"]),
                    row(workload, "prune", pruned, rows=pruned["rows"],
                        subtrees=pruned["subtrees"]),
                    row(workload, "grow-one-split", one, rows=one["rows"], leaves=one["leaves"],
                        gram_rows=one["gram_rows"])]
            grows = max(grown["wall_s"], pruned["wall_s"], one["wall_s"]) <= CAP_S
            tree.unlink()
        path.unlink()
        Path(f"{path}.manifest.json").unlink(missing_ok=True)
        for r in new:
            print(json.dumps(r), flush=True)
        rows += new
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sizes", type=int, nargs="+", default=SIZES, help="values of N")
    p.add_argument("--out", default=str(ROOT / "BENCH_scale.json"))
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="coastrank-scale-") as tmp:
        rows = [row for n in ITEMS for row in stage_rows(n, args.sizes, Path(tmp))]
    Path(args.out).write_text(json.dumps(rows, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
