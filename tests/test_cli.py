"""End-to-end command-line pipeline, exit codes, and rerun determinism."""

import csv
import json

import pytest

from coastrank.cli import main
from coastrank.fileio import load_rankings, read_json, sha256_of, write_rankings
from coastrank.models import random_mallows_mixture_spec
from coastrank.perms import DiscreteRankingDistribution, RankingSample
from coastrank.transport import l2_distance
from coastrank.tree import CoastTree

from conftest import random_permutation


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
    got = crd.to_distribution()
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
            "fit", "--input", rank, "--epsilon", 0.3, "--threads", 2,
            "--out", tree, "--trace", trace,
        ) == 0
        outs.append((sha256_of(rank), sha256_of(tree), sha256_of(trace)))
    assert outs[0] == outs[1]
    m1 = read_json(str(tmp_path / "t_one.json") + ".manifest.json")
    m2 = read_json(str(tmp_path / "t_two.json") + ".manifest.json")
    assert m1["outputs"] == m2["outputs"]
    assert m1["inputs"] == m2["inputs"]


def test_threads_do_not_change_fit(tmp_path, spec_path, monkeypatch):
    rank = tmp_path / "r.csv"
    assert run("sample", "--spec", spec_path, "--size", 90, "--out", rank) == 0
    serial = tmp_path / "serial.json"
    threaded = tmp_path / "threaded.json"
    assert run("fit", "--input", rank, "--epsilon", 0.2, "--threads", 1, "--out", serial) == 0
    monkeypatch.setenv("RANK_THREADS", "3")
    assert run("fit", "--input", rank, "--epsilon", 0.2, "--out", threaded) == 0
    assert sha256_of(serial) == sha256_of(threaded)


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["fit", "--no-such-flag", "x"])
    assert err.value.code == 2
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


def test_invalid_rank_threads_exits_one(tmp_path, spec_path, monkeypatch, capsys):
    rank = tmp_path / "r.csv"
    assert run("sample", "--spec", spec_path, "--size", 30, "--out", rank) == 0
    monkeypatch.setenv("RANK_THREADS", "abc")
    assert run("fit", "--input", rank, "--epsilon", 0.2, "--out", tmp_path / "t.json") == 1
    assert "RANK_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()
