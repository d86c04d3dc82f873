"""End-to-end command-line pipeline, exit codes, and rerun determinism."""

import csv
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from coastrank import cli
from coastrank.cli import main
from coastrank.fileio import load_rankings, read_json, sha256_of, write_rankings
from coastrank.models import random_mallows_mixture_spec
from coastrank.perms import DiscreteRankingDistribution, RankingSample
from coastrank.tree import CoastTree

from conftest import malformed_spec_documents, random_permutation, record_permutation_builds
from oracles import crd_distribution, l2_distance


@pytest.fixture
def spec_path(tmp_path):
    spec = random_mallows_mixture_spec(n=6, k=2, phi=3.0, seed=5, min_separation=6)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_json_obj()))
    return str(path)


def run(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_pipeline_end_to_end(tmp_path, spec_path, capsys):
    rank = tmp_path / "train.csv"
    assert run("sample", "--spec", spec_path, "--size", 150, "--out", rank) == 0
    s = load_rankings(rank)
    assert len(s) == 150 and s.n == 6
    assert s.labels is not None and set(s.labels) <= {0, 1}
    assert (tmp_path / "train.csv.manifest.json").exists()

    tree_path = tmp_path / "tree.json"
    trace_path = tmp_path / "trace.csv"
    assert run(
        "fit", "--input", rank, "--epsilon", 0.4, "--out", tree_path,
        "--trace", trace_path,
    ) == 0
    tree = CoastTree.from_json_obj(read_json(tree_path))
    assert tree.leaf_count >= 2
    trace = read_csv(trace_path)
    assert list(trace[0]) == ["iteration", "leaf_count", "criterion", "splits"]
    crits = [float(r["criterion"]) for r in trace]
    assert all(a >= b - 1e-12 for a, b in zip(crits, crits[1:]))
    manifest = read_json(str(tree_path) + ".manifest.json")
    assert manifest["command"] == "fit"
    assert set(manifest["outputs"]) == {"tree", "trace"}
    assert manifest["outputs"]["tree"] == sha256_of(tree_path)
    assert "grow" in manifest["wall_times"]

    pruned_path = tmp_path / "selected.json"
    assert run(
        "prune", "--tree", tree_path, "--input", rank, "--lambda", 0.005,
        "--out", pruned_path,
    ) == 0
    pruned = CoastTree.from_json_obj(read_json(pruned_path))
    assert 1 <= pruned.leaf_count <= tree.leaf_count

    report_path = tmp_path / "report.csv"
    assert run("eval", "--tree", tree_path, "--input", rank, "--out", report_path) == 0
    report = read_csv(report_path)
    assert len(report) == tree.leaf_count  # one row per weakest-link step
    assert int(report[0]["leaves"]) == tree.leaf_count
    last = report[-1]
    assert int(last["leaves"]) == 1
    # the one-cell partition is the equality case of the transport bound
    assert float(last["w"]) == pytest.approx(float(last["e"]), abs=1e-9)
    for row in report:
        assert row["w_le_e"] == "1"
        assert row["e_le_two_e_prime"] == "1"
        assert float(row["w"]) <= float(row["e"]) + 1e-9

    query = tmp_path / "query.csv"
    assert run(
        "sample", "--spec", spec_path, "--size", 60, "--seed", 909, "--out", query
    ) == 0
    depth_a = tmp_path / "depth_a.csv"
    assert run(
        "depth", "--tree", tree_path, "--fit", rank, "--query", query,
        "--out", depth_a,
    ) == 0
    depths = read_csv(depth_a)
    assert len(depths) == 60
    assert {r["cell"] for r in depths} <= {str(i) for i in tree.frontier}

    anomaly_path = tmp_path / "anomaly.csv"
    assert run(
        "anomaly", "--tree", tree_path, "--fit", rank, "--query", query,
        "--out", anomaly_path,
    ) == 0
    scores = read_csv(anomaly_path)
    for d, a in zip(depths, scores):
        assert float(a["anomaly_score"]) == pytest.approx(-float(d["local_depth"]), abs=1e-9)

    dd_path = tmp_path / "dd.csv"
    assert run(
        "ddplot", "--tree", tree_path, "--fit", rank, "--query", query,
        "--cell", tree.frontier[0], "--out", dd_path,
    ) == 0
    dd = read_csv(dd_path)
    assert len(dd) == 60
    assert {r["cell"] for r in dd} == {str(tree.frontier[0])}

    smooth_path = tmp_path / "smooth.json"
    assert run(
        "smooth", "--tree", tree_path, "--input", rank,
        "--cell", tree.frontier[0], "--out", smooth_path,
    ) == 0
    doc = read_json(smooth_path)
    assert doc["cell_id"] == tree.frontier[0]
    assert doc["method"] == "enumeration"
    probs = doc["probabilities"]
    assert probs is not None
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)

    depth_b = tmp_path / "depth_b.csv"
    query2 = tmp_path / "query2.csv"
    assert run(
        "sample", "--spec", spec_path, "--size", 60, "--seed", 910, "--out", query2
    ) == 0
    assert run(
        "depth", "--tree", tree_path, "--fit", rank, "--query", query2,
        "--out", depth_b,
    ) == 0
    hom_json = tmp_path / "hom.json"
    assert run(
        "hom-test", "--a", depth_a, "--b", depth_b, "--out", hom_json
    ) == 0
    out = capsys.readouterr().out
    assert "p=" in out and "u=" in out
    res = read_json(hom_json)
    assert 0.0 <= res["p_value"] <= 1.0
    assert res["n_a"] == res["n_b"] == 60

    co_path = tmp_path / "co.csv"
    assert run("comembership", "--tree", tree_path, "--input", rank, "--out", co_path) == 0
    with open(co_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 151 and len(rows[1]) == 151  # header + index column


def test_fit_epsilon_huge_gives_single_node(tmp_path, spec_path):
    rank = tmp_path / "r.csv"
    assert run("sample", "--spec", spec_path, "--size", 40, "--out", rank) == 0
    tree_path = tmp_path / "t.json"
    assert run("fit", "--input", rank, "--epsilon", 1e9, "--out", tree_path) == 0
    doc = read_json(tree_path)
    assert len(doc["nodes"]) == 1
    assert doc["nodes"][0]["median"] is not None


def test_fit_epsilon_zero_reproduces_empirical(tmp_path, rng):
    seen = {}
    while len(seen) < 50:
        p = random_permutation(rng, 6)
        seen[p.ranks] = p
    sample = RankingSample(tuple(seen.values()))
    rank = tmp_path / "distinct.csv"
    write_rankings(sample, rank)
    tree_path = tmp_path / "t.json"
    assert run(
        "fit", "--input", rank, "--epsilon", 0, "--max-leaves", 100000,
        "--out", tree_path,
    ) == 0
    tree = CoastTree.from_json_obj(read_json(tree_path))
    crd = tree.crd()
    assert crd.k <= 50
    got = crd_distribution(crd)
    want = DiscreteRankingDistribution.empirical(sample)
    assert l2_distance(got, want) == pytest.approx(0.0, abs=1e-12)


def test_fit_balanced_rule_and_one_split(tmp_path, spec_path):
    rank = tmp_path / "r.csv"
    assert run("sample", "--spec", spec_path, "--size", 80, "--out", rank) == 0
    tree_path = tmp_path / "t.json"
    assert run(
        "fit", "--input", rank, "--epsilon", 0.5, "--rule", "balanced",
        "--one-split-per-iter", "--aggregator", "copeland", "--out", tree_path,
    ) == 0
    assert CoastTree.from_json_obj(read_json(tree_path)).leaf_count >= 1


def test_rerun_is_byte_identical(tmp_path, spec_path):
    outs = []
    for tag in ("one", "two"):
        rank = tmp_path / f"r_{tag}.csv"
        tree = tmp_path / f"t_{tag}.json"
        trace = tmp_path / f"g_{tag}.csv"
        assert run("sample", "--spec", spec_path, "--size", 100, "--out", rank) == 0
        assert run(
            "fit", "--input", rank, "--epsilon", 0.3,
            "--out", tree, "--trace", trace,
        ) == 0
        outs.append((sha256_of(rank), sha256_of(tree), sha256_of(trace)))
    assert outs[0] == outs[1]
    m1 = read_json(str(tmp_path / "t_one.json") + ".manifest.json")
    m2 = read_json(str(tmp_path / "t_two.json") + ".manifest.json")
    assert m1["outputs"] == m2["outputs"]
    assert m1["inputs"] == m2["inputs"]


# one process runs every command, so the BLAS pool size is read once at import
PIPELINE = """
import sys
from coastrank.cli import main

rank, out = sys.argv[1:]
for argv in (
    ["fit", "--input", rank, "--epsilon", "0", "--max-leaves", "8",
     "--out", f"{out}/tree.json", "--trace", f"{out}/trace.csv"],
    ["prune", "--tree", f"{out}/tree.json", "--input", rank, "--lambda", "0.01",
     "--out", f"{out}/sub.json"],
    ["eval", "--tree", f"{out}/tree.json", "--input", rank, "--out", f"{out}/report.csv"],
    ["depth", "--tree", f"{out}/tree.json", "--fit", rank, "--query", rank,
     "--out", f"{out}/depths.csv"],
):
    if main(argv) != 0:
        sys.exit(1)
"""


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # every Gram entry and split score is an exact count, so the BLAS pool
    # size cannot change a tree, a report or a depth
    spec = random_mallows_mixture_spec(n=7, k=3, phi=0.6, seed=11, min_separation=6)
    spec_file, rank = tmp_path / "spec.json", tmp_path / "r.csv"
    spec_file.write_text(json.dumps(spec.to_json_obj()))
    assert run("sample", "--spec", spec_file, "--size", 2000, "--out", rank) == 0
    src = Path(__file__).resolve().parents[1] / "src"
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", PIPELINE, str(rank), str(out)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(src),
                 "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        names = ("tree.json", "trace.csv", "sub.json", "report.csv", "depths.csv")
        counters = read_json(out / "report.csv.manifest.json")["counters"]
        digests.append(([sha256_of(out / name) for name in names], counters))
    assert digests[0] == digests[1]


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["fit", "--no-such-flag", "x"])
    assert err.value.code == 2
    capsys.readouterr()


def test_one_parser_serves_successive_commands(tmp_path, spec_path, monkeypatch, capsys):
    seen = {}
    for name in ("fit", "prune", "eval"):
        handler = getattr(cli, f"cmd_{name}")

        def record(args, name=name, handler=handler):
            seen[name] = {k: v for k, v in vars(args).items() if not k.startswith("_")}
            return handler(args)

        # handlers are looked up when main runs, so the rebinding takes effect
        monkeypatch.setattr(cli, f"cmd_{name}", record)
    rank, tree_path = tmp_path / "train.csv", tmp_path / "tree.json"
    assert run("sample", "--spec", spec_path, "--size", 120, "--out", rank) == 0
    assert run("fit", "--input", rank, "--epsilon", 0.3, "--out", tree_path) == 0
    with pytest.raises(SystemExit) as err:
        run("prune", "--tree", tree_path, "--input", rank)  # --lambda is required
    assert err.value.code == 2
    assert run("prune", "--tree", tree_path, "--input", rank, "--lambda", 0.01,
               "--out", tmp_path / "sub.json") == 0
    assert run("eval", "--tree", tree_path, "--input", rank, "--out", tmp_path / "r.csv") == 0
    assert cli.build_parser() is cli.build_parser()
    common = {"command", "input", "format", "out", "manifest"}
    assert seen["fit"] == {
        "command": "fit", "input": str(rank), "epsilon": 0.3, "rule": "min-distortion",
        "max_leaves": None, "one_split_per_iter": False, "aggregator": "auto", "seed": 0,
        "trace": None, "format": "ordering", "out": str(tree_path),
        "manifest": None,
    }
    assert set(seen["prune"]) == common | {"tree", "lam"}
    assert seen["prune"]["lam"] == 0.01 and seen["prune"]["format"] == "ordering"
    assert set(seen["eval"]) == common | {"tree"}
    assert seen["eval"]["manifest"] is None
    capsys.readouterr()


def test_operational_errors_exit_one(tmp_path, spec_path, capsys):
    assert run("fit", "--input", tmp_path / "absent.csv", "--epsilon", 0.1,
               "--out", tmp_path / "t.json") == 1
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad.csv"
    bad.write_text("1 2 3\n1 1 3\n")
    assert run("fit", "--input", bad, "--epsilon", 0.1, "--out", tmp_path / "t.json") == 1
    assert "row 2" in capsys.readouterr().err

    rank = tmp_path / "r.csv"
    assert run("sample", "--spec", spec_path, "--size", 30, "--out", rank) == 0
    tree_path = tmp_path / "t.json"
    assert run("fit", "--input", rank, "--epsilon", 0.4, "--out", tree_path) == 0
    assert run("smooth", "--tree", tree_path, "--input", rank, "--cell", 999,
               "--out", tmp_path / "s.json") == 1
    assert "not a leaf" in capsys.readouterr().err

    depth = tmp_path / "d.csv"
    assert run("depth", "--tree", tree_path, "--fit", rank, "--query", rank,
               "--out", depth) == 0
    assert run("hom-test", "--a", depth, "--b", depth, "--column", "nope") == 1
    assert "no column" in capsys.readouterr().err

    not_json = tmp_path / "nj.json"
    not_json.write_text("{broken")
    assert run("prune", "--tree", not_json, "--input", rank, "--lambda", 0.1,
               "--out", tmp_path / "p.json") == 1


@pytest.mark.parametrize(
    "doc, needle", [c[1:] for c in malformed_spec_documents()],
    ids=[c[0] for c in malformed_spec_documents()],
)
def test_sample_malformed_spec_exits_one(tmp_path, capsys, doc, needle):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert run("sample", "--spec", spec, "--size", 10, "--out", tmp_path / "r.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err, err
    assert not (tmp_path / "r.csv").exists()


def test_negative_seed_exits_one(tmp_path, spec_path, capsys):
    rank = tmp_path / "r.csv"
    assert run("sample", "--spec", spec_path, "--size", 10, "--seed", -1, "--out", rank) == 1
    assert capsys.readouterr().err.startswith("error: seed must be a non-negative integer")
    assert not rank.exists()
    assert run("sample", "--spec", spec_path, "--size", 40, "--out", rank) == 0
    # refused on every input, whether or not some leaf would climb
    for aggregator in ("depth-climb", "auto", "exact"):
        assert run("fit", "--input", rank, "--epsilon", 0, "--seed", -1,
                   "--aggregator", aggregator, "--out", tmp_path / "t.json") == 1
        assert capsys.readouterr().err.startswith("error: seed must be a non-negative integer")
    assert not (tmp_path / "t.json").exists()


def test_fit_threads_flag_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run("fit", "--input", tmp_path / "r.csv", "--epsilon", 0, "--threads", 2,
            "--out", tmp_path / "t.json")
    assert err.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_hom_test_exact_method(tmp_path, spec_path, capsys):
    rank = tmp_path / "r.csv"
    assert run("sample", "--spec", spec_path, "--size", 8, "--out", rank) == 0
    tree_path = tmp_path / "t.json"
    assert run("fit", "--input", rank, "--epsilon", 1e9, "--out", tree_path) == 0
    depth = tmp_path / "d.csv"
    assert run("depth", "--tree", tree_path, "--fit", rank, "--query", rank,
               "--out", depth) == 0
    assert run("hom-test", "--a", depth, "--b", depth, "--method", "exact") == 0
    out = capsys.readouterr().out
    assert "method=exact" in out
    p = float(out.split("p=")[1].split()[0])
    assert p == pytest.approx(1.0, abs=1e-9)


def test_sample_seed_override_changes_output(tmp_path, spec_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run("sample", "--spec", spec_path, "--size", 50, "--out", a) == 0
    assert run("sample", "--spec", spec_path, "--size", 50, "--seed", 31337,
               "--out", b) == 0
    assert sha256_of(a) != sha256_of(b)


def test_manifest_override_path(tmp_path, spec_path):
    rank = tmp_path / "r.csv"
    man = tmp_path / "custom.manifest.json"
    assert run("sample", "--spec", spec_path, "--size", 20, "--out", rank,
               "--manifest", man) == 0
    doc = read_json(man)
    assert doc["command"] == "sample"
    assert doc["config"]["size"] == 20
    assert not (tmp_path / "r.csv.manifest.json").exists()


def test_eval_manifest_counts_cells_and_pivots(tmp_path, spec_path):
    rank, tree_path, report_path = (tmp_path / f for f in ("r.csv", "t.json", "report.csv"))
    assert run("sample", "--spec", spec_path, "--size", 120, "--out", rank) == 0
    assert run(
        "fit", "--input", rank, "--epsilon", 0, "--max-leaves", 5, "--out", tree_path
    ) == 0
    assert run("eval", "--tree", tree_path, "--input", rank, "--out", report_path) == 0
    leaves = CoastTree.from_json_obj(read_json(tree_path)).leaf_count
    counters = read_json(str(report_path) + ".manifest.json")["counters"]
    assert counters["distinct_cells"] == 2 * leaves - 1
    assert len(counters["steps"]) == len(read_csv(report_path)) == leaves
    for st in counters["steps"]:
        assert st["w_exact"] is True and st["pivots"] >= st["bland_pivots"] >= 0
    assert "counters" not in read_json(str(rank) + ".manifest.json")


@pytest.mark.parametrize("rule", ["min-distortion", "balanced"])
def test_fit_manifest_counts_splits_and_gram_rows_per_round(tmp_path, spec_path, rule):
    rank, tree_path, trace_path = (tmp_path / f for f in ("r.csv", "t.json", "trace.csv"))
    assert run("sample", "--spec", spec_path, "--size", 300, "--out", rank) == 0
    assert run(
        "fit", "--input", rank, "--epsilon", 0, "--max-leaves", 8, "--rule", rule,
        "--out", tree_path, "--trace", trace_path,
    ) == 0
    rounds = read_json(str(tree_path) + ".manifest.json")["counters"]["rounds"]
    trace = read_csv(trace_path)
    # the trace's first row is the root before any round
    assert len(rounds) == len(trace) - 1 >= 2
    for rnd, row in zip(rounds, trace[1:]):
        assert rnd["splits"] == len(row["splits"].split(";"))
    assert sum(r["splits"] for r in rounds) == CoastTree.from_json_obj(
        read_json(tree_path)).leaf_count - 1
    gram_rows = [r["gram_rows"] for r in rounds]
    if rule == "balanced":
        assert gram_rows == [0] * len(rounds)
    else:
        # the root's matrix takes every row; a split node's children take
        # only the smaller child's rows, at most half the parent's
        assert gram_rows[0] == 300 and all(0 < g <= 150 for g in gram_rows[1:])
    # Gram bytes carried into the next round: none from the round that fills
    # max_leaves, and none at all under the balanced rule
    kept = [r["kept_bytes"] for r in rounds]
    assert kept[-1] == 0
    assert all(b > 0 for b in kept[:-1]) if rule == "min-distortion" else not any(kept)


def test_eval_blank_fields_beyond_enumeration_limit(tmp_path):
    spec = random_mallows_mixture_spec(n=10, k=2, phi=1.0, seed=5)
    spec_file = tmp_path / "spec10.json"
    spec_file.write_text(json.dumps(spec.to_json_obj()))
    rank, tree_path = tmp_path / "r10.csv", tmp_path / "t10.json"
    report_path = tmp_path / "report10.csv"
    assert run("sample", "--spec", spec_file, "--size", 600, "--out", rank) == 0
    assert run(
        "fit", "--input", rank, "--epsilon", 0, "--max-leaves", 4, "--out", tree_path
    ) == 0
    assert run("eval", "--tree", tree_path, "--input", rank, "--out", report_path) == 0
    report = read_csv(report_path)
    assert len(report) == 4
    for row in report:
        assert float(row["w"]) >= 0.0 and float(row["e_prime"]) > 0.0
        for col in ("e", "w_le_e", "e_le_two_e_prime", "e_le_e_dprime"):
            assert row[col] == ""


def test_eval_builds_permutations_per_median_not_per_row(tmp_path, monkeypatch):
    spec = random_mallows_mixture_spec(n=5, k=3, phi=0.5, seed=3)
    spec_file = tmp_path / "spec5.json"
    spec_file.write_text(json.dumps(spec.to_json_obj()))
    rank, tree_path = tmp_path / "r5.csv", tmp_path / "t5.json"
    assert run("sample", "--spec", spec_file, "--size", 600, "--out", rank) == 0
    assert run("fit", "--input", rank, "--epsilon", 0, "--max-leaves", 8, "--out", tree_path) == 0
    nodes = len(CoastTree.from_json_obj(read_json(tree_path)).nodes)
    distinct = len(DiscreteRankingDistribution.empirical(load_rankings(rank)).ranks)
    built = record_permutation_builds(monkeypatch)
    assert run("eval", "--tree", tree_path, "--input", rank, "--out", tmp_path / "rep.csv") == 0
    # the tree's medians and each cell's exact medians, none per sample row or support point
    assert 0 < len(built) <= 3 * nodes < distinct


def test_smooth_one_item_exits_one(tmp_path, capsys):
    rank, tree = tmp_path / "r1.csv", tmp_path / "t1.json"
    rank.write_text("item_1\n1\n1\n")
    assert run("fit", "--input", rank, "--epsilon", 0, "--out", tree) == 0
    assert run("smooth", "--tree", tree, "--input", rank, "--cell", 0, "--out", tmp_path / "s.json") == 1
    assert capsys.readouterr().err.startswith("error: normalizer z = 0.0")
    assert not (tmp_path / "s.json").exists()


# --- malformed tree documents ------------------------------------------------


@pytest.fixture
def fitted(tmp_path, spec_path):
    """A fitted 4-leaf tree document and the ranking file it came from."""
    rank = tmp_path / "r.csv"
    assert run("sample", "--spec", spec_path, "--size", 120, "--out", rank) == 0
    tree = tmp_path / "tree.json"
    assert run("fit", "--input", rank, "--epsilon", 0, "--max-leaves", 4, "--out", tree) == 0
    return read_json(tree), rank


def depth_on(tmp_path, doc, rank):
    """Run `coastrank depth` on a tree document in a fresh interpreter."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "coastrank.cli", "depth", "--tree", str(bad), "--fit", str(rank),
         "--query", str(rank), "--out", str(tmp_path / "d.csv")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=cap_memory,
    )


def cap_memory():
    # a loader that loops while growing a list fails fast instead of filling the host
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def assert_rejected(proc, needle):
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and needle in proc.stderr, proc.stderr


def inner_node(doc):
    return next(nd for nd in doc["nodes"] if nd["id"] != 0 and nd["children"] is not None)


@pytest.mark.parametrize("split", [[2, 2], [1, 7], [0, 3]])
def test_tree_with_bad_split_exits_one(tmp_path, fitted, split):
    doc, rank = fitted
    doc["nodes"][0]["split"] = split
    assert_rejected(depth_on(tmp_path, doc, rank), "tree node 0: split")


@pytest.mark.parametrize("n", [5, 7, 5000, 10**9])
def test_tree_over_other_items_than_the_rankings_exits_one(tmp_path, fitted, n):
    # refused before any node is built: 5000 items used to run for minutes
    # building cells, and 10**9 ended in a MemoryError traceback
    doc, rank = fitted
    doc["n"] = n
    needle = f"tree document is over {n} items, the rankings over 6"
    assert_rejected(depth_on(tmp_path, doc, rank), needle)


@pytest.mark.parametrize("value", [float("inf"), 1e300])
def test_tree_integer_field_out_of_range_exits_one(tmp_path, fitted, value):
    doc, rank = fitted
    inner_node(doc)["children"][0] = value
    assert_rejected(depth_on(tmp_path, doc, rank), f"tree node {inner_node(doc)['id']}: ")


def leaf_node(doc):
    return next(nd for nd in doc["nodes"] if nd["children"] is None)


def shift_median(doc):
    leaf_node(doc)["median"] = [r + 0.3 for r in leaf_node(doc)["median"]]


def shift_constraint(doc):
    leaf_node(doc)["constraints"][0][0] += 0.5


NON_INTEGER_TREE_FIELDS = [
    ("split-float", lambda d: d["nodes"][0].update(split=[3, 4.5]),
     "tree node 0: split entry must be an integer, got 4.5"),
    ("split-str", lambda d: d["nodes"][0].update(split=["3", 4]),
     "tree node 0: split entry must be an integer, got '3'"),
    ("id-float", lambda d: d["nodes"][0].update(id=0.0),
     "tree node at position 0: id must be an integer, got 0.0"),
    ("children-float", lambda d: d["nodes"][0].update(children=[1.4, 2.4]),
     "tree node 0: children entry must be an integer, got 1.4"),
    ("median-float", shift_median, ": median entry must be an integer, got "),
    ("constraint-float", shift_constraint, ": constraint entry must be an integer, got "),
    ("n-float", lambda d: d.update(n=6.0), "tree n must be an integer, got 6.0"),
    ("n-bool", lambda d: d.update(n=True), "tree n must be an integer, got True"),
]


@pytest.mark.parametrize(
    "edit, needle", [c[1:] for c in NON_INTEGER_TREE_FIELDS],
    ids=[c[0] for c in NON_INTEGER_TREE_FIELDS],
)
def test_tree_non_integer_field_exits_one(tmp_path, fitted, capsys, edit, needle):
    # these used to load by truncation: a split [3, 4.5] as [3, 4], a median
    # with 0.3 added to every rank as the median itself
    doc, rank = fitted
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "d.csv"
    assert run("depth", "--tree", bad, "--fit", rank, "--query", rank, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and needle in err, err
    assert not out.exists()


@pytest.mark.parametrize("median", [[1, 2, 3, 4, 5], [1, 2, 3, 4, 5, 6, 7]])
def test_tree_median_over_other_items_exits_one(tmp_path, fitted, median):
    doc, rank = fitted
    leaf = next(nd for nd in doc["nodes"] if nd["children"] is None)
    leaf["median"] = median
    needle = f"tree node {leaf['id']}: median ranks {len(median)} items, not 6"
    assert_rejected(depth_on(tmp_path, doc, rank), needle)


@pytest.mark.parametrize("key", ["constraints", "id", "weight", "v_hat"])
def test_tree_node_missing_field_exits_one(tmp_path, fitted, key):
    doc, rank = fitted
    node = doc["nodes"][2]
    del node[key]
    where = "tree node at position 2" if key == "id" else f"tree node {node['id']}"
    assert_rejected(depth_on(tmp_path, doc, rank), f"{where}: missing '{key}'")


def test_tree_child_missing_or_shared_exits_one(tmp_path, fitted):
    doc, rank = fitted
    missing = json.loads(json.dumps(doc))
    missing["nodes"][0]["children"][1] = 99
    assert_rejected(depth_on(tmp_path, missing, rank), "tree node 0: child 99 does not exist")
    # a leaf whose children loop back to its own ancestor
    looped = json.loads(json.dumps(doc))
    inner = inner_node(looped)
    leaf = next(looped["nodes"][c] for c in inner["children"] if looped["nodes"][c]["children"] is None)
    leaf["split"], leaf["children"] = [1, 2], [inner["id"], 0 if inner["id"] else 1]
    assert_rejected(depth_on(tmp_path, looped, rank), f"child {inner['id']} is already a child of")


def test_tree_node_unreachable_from_root_exits_one(tmp_path, fitted):
    doc, rank = fitted
    # two nodes that are each other's child: one parent each, but no path from the root
    leaf = {"constraints": [], "weight": 0.0, "v_hat": 0.0, "split": None, "children": None}
    doc["nodes"] += [
        dict(leaf, id=90, split=[1, 2], children=[91, 92]),
        dict(leaf, id=91, split=[1, 2], children=[90, 93]),
        dict(leaf, id=92),
        dict(leaf, id=93),
    ]
    assert_rejected(depth_on(tmp_path, doc, rank), "tree node 90: not reachable from root 0")


def test_tree_child_cell_not_parent_plus_split_exits_one(tmp_path, fitted):
    doc, rank = fitted
    # node ids are list positions in a written tree
    flipped = json.loads(json.dumps(doc))
    (i, j), (c0, _) = flipped["nodes"][0]["split"], flipped["nodes"][0]["children"]
    flipped["nodes"][c0]["constraints"] = [[j, i]]
    assert_rejected(
        depth_on(tmp_path, flipped, rank),
        f"tree node {c0}: constraints are not those of parent 0 plus {i} before {j}",
    )
    # a grandchild that keeps only its own split, dropping its ancestors' constraints
    dropped = json.loads(json.dumps(doc))
    inner = inner_node(dropped)
    (i, j), (_, c1) = inner["split"], inner["children"]
    dropped["nodes"][c1]["constraints"] = [[j, i]]
    assert_rejected(
        depth_on(tmp_path, dropped, rank),
        f"tree node {c1}: constraints are not those of parent {inner['id']} plus {j} before {i}",
    )


def test_tree_weights_that_do_not_add_up_exit_one(tmp_path, fitted):
    doc, rank = fitted
    # a leaf heavier than its share: its parent's weight is no longer the children's sum
    heavy = json.loads(json.dumps(doc))
    inner = inner_node(heavy)
    heavy["nodes"][inner["children"][0]]["weight"] += 0.01
    assert_rejected(
        depth_on(tmp_path, heavy, rank), f"tree node {inner['id']}: weight",
    )
    # every weight scaled alike: each parent is still its children's sum, the frontier is not 1
    scaled = json.loads(json.dumps(doc))
    for nd in scaled["nodes"]:
        nd["weight"] *= 1.01
    assert_rejected(
        depth_on(tmp_path, scaled, rank), "tree node 0: frontier weights sum to",
    )


@pytest.mark.parametrize("key, value", [("weight", "nan"), ("v_hat", "inf"), ("weight", -0.25)])
def test_tree_weight_not_finite_and_non_negative_exits_one(tmp_path, fitted, key, value):
    doc, rank = fitted
    leaf = next(nd for nd in doc["nodes"] if nd["children"] is None)
    leaf[key] = float(value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "coastrank.cli", "prune", "--tree", str(bad), "--input", str(rank),
         "--lambda", "0.01", "--out", str(tmp_path / "sub.json")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=cap_memory,
    )
    assert_rejected(proc, f"tree node {leaf['id']}: {key} must be finite and >= 0")
    assert not (tmp_path / "sub.json").exists()


def test_tree_weights_within_the_tolerance_load(tmp_path, fitted):
    doc, rank = fitted
    leaf = next(nd for nd in doc["nodes"] if nd["children"] is None)
    leaf["weight"] += 1e-12  # below the stated 1e-9 slack
    proc = depth_on(tmp_path, doc, rank)
    assert proc.returncode == 0, proc.stderr
