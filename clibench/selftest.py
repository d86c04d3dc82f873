"""Show that the output checks catch a corrupted output value.

    python3 clibench/selftest.py

For each workload, with seed 1: draw the inputs, run one pipeline pass on
the first data set, and require the checks to pass on its outputs. Then
change one value in one output (or one pass digest) at a time and require
the checks to fail on each copy. Exits 0 only if the clean outputs pass and every corruption is
caught.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
from pathlib import Path

import checks
from child import ROOT, Operations, digests_of, import_coastrank
from workloads import WORKLOADS, dataset_dirs, pass_commands, sample_commands

SEED = 1


def _edit_json(name, edit):
    def apply(d: Path):
        doc = json.loads((d / name).read_text())
        edit(doc)
        (d / name).write_text(json.dumps(doc, indent=2) + "\n")
    return apply


def _edit_csv(name, row, column, change):
    def apply(d: Path):
        with open(d / name, newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index(column)
        k = row if row >= 0 else len(rows) + row
        rows[k][col] = "%.12g" % change(float(rows[k][col]), rows, col, k)
        with open(d / name, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    return apply


def _first_leaf(doc):
    return next(node for node in doc["nodes"] if node["children"] is None)


def _bump_weight(doc):
    _first_leaf(doc)["weight"] += 1e-6


def _swap_top_two(doc):
    med = _first_leaf(doc)["median"]
    a, b = med.index(1), med.index(2)
    med[a], med[b] = 2, 1


def _raise_last_criterion(value, rows, col, k):
    return float(rows[k - 1][col]) * 1.01


def _scale_middle_w(d: Path):
    steps = len((d / "report.csv").read_text().splitlines()) - 1
    _edit_csv("report.csv", 1 + steps // 2, "w", lambda v, *_: v * 1.001)(d)


CORRUPTIONS = {
    "fit-n50": [
        ("tree.json: first leaf weight + 1e-6", _edit_json("tree.json", _bump_weight)),
        ("sub.json: top two items of a leaf median swapped", _edit_json("sub.json", _swap_top_two)),
        ("trace.csv: last criterion above the one before",
         _edit_csv("trace.csv", -1, "criterion", _raise_last_criterion)),
    ],
    "eval-n7": [
        ("report.csv: w of the middle step x 1.001", _scale_middle_w),
        ("report.csv: e of the root step - 0.01",
         _edit_csv("report.csv", -1, "e", lambda v, *_: v - 0.01)),
    ],
    "score-n20": [
        ("depths.csv: local depth of query 0 + 0.001",
         _edit_csv("depths.csv", 1, "local_depth", lambda v, *_: v + 0.001)),
        ("scores.csv: anomaly score of query 5 + 0.001",
         _edit_csv("scores.csv", 6, "anomaly_score", lambda v, *_: v + 0.001)),
    ],
}


def selftest(name: str, base: Path) -> bool:
    cli = import_coastrank()
    wl = WORKLOADS[name]
    d = base / name
    d.mkdir(parents=True)
    for cmd in sample_commands(wl, SEED, d):
        if cli.main(cmd) != 0:
            raise SystemExit(f"set-up failed: {cmd}")
    ops = Operations(cli)
    d0 = dataset_dirs(wl, d)[0]
    ops.run_pass(pass_commands(wl, d0))
    digests = {0: [digests_of(d0, wl.outputs)] * 2}
    ok = ops.failed == 0
    clean = checks.check(wl, d, digests)
    print(f"{name}: clean outputs: {'pass' if not clean else 'FAIL ' + '; '.join(clean)}")
    ok &= not clean

    bad_digest = dict(digests[0][0])
    bad_digest[wl.outputs[0]] = "0" * 64
    cases = [(f"pass digest of {wl.outputs[0]} changed", None)] + CORRUPTIONS[name]
    for label, corrupt in cases:
        copy = base / f"{name}-corrupt"
        shutil.copytree(d, copy)
        if corrupt is not None:
            corrupt(dataset_dirs(wl, copy)[0])
        found = checks.check(wl, copy, digests if corrupt else {0: [digests[0][0], bad_digest]})
        shutil.rmtree(copy)
        print(f"{name}: {label}: {'caught: ' + found[0] if found else 'NOT CAUGHT'}")
        ok &= bool(found)
    return ok


def main() -> int:
    base = ROOT / ".clibench_runs" / f"selftest-{os.getpid()}"
    try:
        results = [selftest(name, base) for name in WORKLOADS]
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print("selftest:", "pass" if all(results) else "FAIL")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
