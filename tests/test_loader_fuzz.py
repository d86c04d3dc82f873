"""Seeded fuzzing of the document loaders through the command line.

Valid ranking files, tree documents and mixture specs over 5 items are
mutated at random: JSON values are deleted, replaced or duplicated, ranking
fields are replaced, dropped or added, and the text of either kind gets byte
edits. A command reading a mutated document must succeed or exit 1 with an
``error:`` line, never with a traceback, and a spec or tree it accepts must
round-trip: loaded, written with ``to_json_obj`` and loaded again, it writes
the same document. Most cases run in-process through
``cli.main``, each under a 5 s alarm (which cannot cut a single long numpy
call); eight run in a fresh interpreter under the address-space limit the
other CLI tests use, with a 30 s timeout. The whole module takes about 5 s
on a 2-vCPU machine.
"""

import copy
import json
import os
import signal
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from coastrank.cli import main
from coastrank.fileio import read_json
from coastrank.models import MixtureSpec, random_mallows_mixture_spec
from coastrank.tree import CoastTree

from conftest import malformed_spec_documents, spec_document
from test_cli import cap_memory

CASES_PER_KIND = 120
SUBPROCESS_CASES = (5, 42)  # of each kind, besides the fixed cases marked for one
CASE_SECONDS = 5
SUBPROCESS_SECONDS = 30

ODD_VALUES = [
    None, True, False, -2, -1, 0, 1, 2, 5, 6, 7, 2.5, -0.0, 10**9, 1e308, 10**20,
    float("inf"), float("nan"), "", "x", "3", [], {}, [1], [1, 2], [5, 1], [[1, 2]],
    [1, 2, 3, 4], [1, 2, 3, 4, 5, 6], {"a": 1},
]
ODD_FIELDS = [
    "0", "6", "-1", "1.5", "x", "", " ", "1e3", "nan", "99999999999999999999",
    "\t3", "٣", "3 3", "1,2", "﻿1", "\x00", "label",
]
ODD_BYTES = [b"\xff", b"\x00", b"{", b"}", b"[", b"]", b'"', b",", b"9", b"-", b".", b"e",
             b"\n", b" ", b"\xef\xbb\xbf"]


def locations(doc):
    """Every (container, key) pair inside a JSON document, depth first."""
    if isinstance(doc, (dict, list)):
        for key, value in list(doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield doc, key
            yield from locations(value)


def mutate_bytes(rng, text: bytes) -> tuple[bytes, str]:
    op = rng.choice(["put", "insert", "delete", "truncate", "repeat"])
    at = int(rng.integers(0, len(text) + 1))
    if op == "truncate":
        return text[:at], f"truncate at {at}"
    if op == "delete":
        end = at + int(rng.integers(1, 8))
        return text[:at] + text[end:], f"delete {at}:{end}"
    if op == "repeat":
        end = at + int(rng.integers(1, 40))
        return text[:end] + text[at:], f"repeat {at}:{end}"
    b = ODD_BYTES[int(rng.integers(len(ODD_BYTES)))]
    if op == "insert":
        return text[:at] + b + text[at:], f"insert {b!r} at {at}"
    return text[:at] + b + text[at + 1 :], f"put {b!r} at {at}"


def mutate_json(rng, doc) -> tuple[bytes, str]:
    """One random edit of a JSON document, returned as the text to write."""
    if rng.random() < 0.25:
        return mutate_bytes(rng, json.dumps(doc).encode())
    doc = copy.deepcopy(doc)
    where = list(locations(doc))
    container, key = where[int(rng.integers(len(where)))]
    op = rng.choice(["replace", "replace", "delete", "duplicate"])
    if op == "delete":
        del container[key]
    elif op == "duplicate" and isinstance(container, list):
        container.insert(key, copy.deepcopy(container[key]))
    else:
        value = ODD_VALUES[int(rng.integers(len(ODD_VALUES)))]
        container[key] = copy.deepcopy(value)
        op = f"replace with {value!r}"
    return json.dumps(doc).encode(), f"{op} at {key!r}"


def mutate_rankings(rng, text: str) -> tuple[bytes, str]:
    """One random edit of a ranking file: a field, a row or some bytes."""
    if rng.random() < 0.3:
        return mutate_bytes(rng, text.encode())
    rows = [line.split(",") for line in text.splitlines()]
    r = int(rng.integers(len(rows)))
    c = int(rng.integers(len(rows[r])))
    op = rng.choice(["replace", "replace", "drop", "add", "drop row", "repeat row"])
    if op == "drop":
        del rows[r][c]
    elif op == "add":
        rows[r].insert(c, ODD_FIELDS[int(rng.integers(len(ODD_FIELDS)))])
    elif op == "drop row":
        del rows[r]
    elif op == "repeat row":
        rows.insert(r, list(rows[r]))
    else:
        field = ODD_FIELDS[int(rng.integers(len(ODD_FIELDS)))]
        rows[r][c] = field
        op = f"replace with {field!r}"
    return ("\n".join(",".join(row) for row in rows) + "\n").encode(), f"{op} at row {r}, field {c}"


@pytest.fixture
def base(tmp_path):
    """Valid documents of each kind, and the ranking file and tree they make."""
    d = tmp_path / "base"
    d.mkdir()
    spec = random_mallows_mixture_spec(n=5, k=2, phi=1.0, seed=5, min_separation=3)
    (d / "spec.json").write_text(json.dumps(spec.to_json_obj()))
    rank, tree = str(d / "r.csv"), str(d / "tree.json")
    assert main(["sample", "--spec", str(d / "spec.json"), "--size", "60", "--out", rank]) == 0
    assert main(["fit", "--input", rank, "--epsilon", "0", "--max-leaves", "4", "--out", tree]) == 0
    doc = read_json(tree)
    leaf = next(nd["id"] for nd in doc["nodes"] if nd["children"] is None)
    return {"rank": rank, "rank_text": Path(rank).read_text(), "tree": doc, "tree_path": tree,
            "leaf": leaf}


def commands(kind: str, case: int, path: str, base, out: str) -> list[str]:
    """The command that reads the mutated document, rotating over its readers."""
    rank = base["rank"]
    if kind == "spec":
        return ["sample", "--spec", path, "--size", "30", "--out", out]
    if kind == "rankings":
        if case % 2:
            tree = base["tree_path"]
            return ["depth", "--tree", tree, "--fit", rank, "--query", path, "--out", out]
        return ["fit", "--input", path, "--epsilon", "0", "--max-leaves", "4", "--out", out]
    return [
        ["prune", "--tree", path, "--input", rank, "--lambda", "0.01", "--out", out],
        ["depth", "--tree", path, "--fit", rank, "--query", rank, "--out", out],
        ["eval", "--tree", path, "--input", rank, "--out", out],
        ["smooth", "--tree", path, "--input", rank, "--cell", str(base["leaf"]), "--out", out],
        ["comembership", "--tree", path, "--input", rank, "--out", out],
    ][case % 5]


def fuzz_cases(base, seed: int):
    """(kind, name, document bytes, whether to run it in a subprocess).

    The fixed cases come first, then the mutated ones.
    """
    for name, doc, _ in malformed_spec_documents():
        yield "spec", name, json.dumps(doc).encode(), False
    not_list = {**spec_document(), "components": 5}
    yield "spec", "components-not-list", json.dumps(not_list).encode(), False
    yield "spec", "not-utf8", b'{"n": 5, "seed": \xff}', False
    yield "spec", "deep", b"[" * 100_000 + b"]" * 100_000, False
    # the tree loader used to build cells over all n items before any check:
    # minutes in one uninterruptible matrix product at 5000, a MemoryError at 10**9
    for n in (5000, 10**9):
        yield "tree", f"tree over {n} items", json.dumps({**base["tree"], "n": n}).encode(), True
    rng = np.random.default_rng(seed)
    for case in range(CASES_PER_KIND):
        isolate = case in SUBPROCESS_CASES
        text, what = mutate_json(rng, spec_document())
        yield "spec", f"spec {case}: {what}", text, isolate
        text, what = mutate_json(rng, base["tree"])
        yield "tree", f"tree {case}: {what}", text, isolate
        text, what = mutate_rankings(rng, base["rank_text"])
        yield "rankings", f"rankings {case}: {what}", text, isolate


class CaseTimeout(Exception):
    pass


def run_in_process(argv, capsys):
    def expire(signum, frame):
        raise CaseTimeout(f"over {CASE_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    try:
        code = main(argv)
    except Exception as exc:  # any escape is the failure under test
        code = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, capsys.readouterr().err


def run_in_subprocess(argv):
    src = Path(__file__).resolve().parents[1] / "src"
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "coastrank.cli", *argv],
            capture_output=True, text=True, timeout=SUBPROCESS_SECONDS,
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=cap_memory,
        )
    except subprocess.TimeoutExpired:
        return f"timeout after {SUBPROCESS_SECONDS} s", ""
    return proc.returncode, proc.stderr


def round_trip_failure(kind: str, path) -> str | None:
    """How an accepted spec or tree fails to write the document it reloads from, if it does."""
    load = MixtureSpec.from_json_obj if kind == "spec" else partial(CoastTree.from_json_obj, items=5)
    written = json.dumps(load(read_json(path)).to_json_obj())
    again = json.dumps(load(json.loads(written)).to_json_obj())
    return None if again == written else f"wrote {written}, then {again}"


def test_mutated_documents_succeed_or_exit_one(tmp_path, base, capsys):
    failures, isolated, seen = [], 0, {"spec": 0, "tree": 0, "rankings": 0}
    accepted = {"spec": 0, "tree": 0}
    for kind, name, text, isolate in fuzz_cases(base, seed=20261019):
        path, out = tmp_path / f"doc_{kind}", str(tmp_path / f"out_{kind}")
        path.write_bytes(text)
        argv = commands(kind, seen[kind], str(path), base, out)
        seen[kind] += 1
        if isolate:
            isolated += 1
            code, err = run_in_subprocess(argv)
        else:
            code, err = run_in_process(argv, capsys)
        if not (code == 0 or (code == 1 and err.startswith("error: ") and "Traceback" not in err)):
            failures.append(f"{name} ({argv[0]}): exit {code}: {err.strip()[-300:]}")
        elif code == 0 and kind != "rankings":
            accepted[kind] += 1
            if (why := round_trip_failure(kind, path)) is not None:
                failures.append(f"{name}: does not round-trip: {why[-300:]}")
    assert isolated == 2 + 3 * len(SUBPROCESS_CASES)
    assert min(accepted.values()) > 0, accepted  # the round trip was checked
    assert not failures, f"{len(failures)} failing cases:\n" + "\n".join(failures[:20])
