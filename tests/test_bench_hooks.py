"""The benchmark's tracer finds every name it hooks, and puts each one back."""

import importlib
import inspect
import json
from pathlib import Path

CLIBENCH = Path(__file__).resolve().parents[1] / "clibench"


def test_tracer_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(CLIBENCH))
    tracing = importlib.import_module("tracing")
    mods = {name: importlib.import_module(f"coastrank.{name}") for name in tracing.MODULES}
    hooks = [(owner, attr) for owner, attr, *_ in tracing._hooks(mods)]
    namespaces = [vars(m) for m in mods.values()]
    namespaces += [vars(owner) for owner, _ in hooks if isinstance(owner, type)]
    before = [{k: id(v) for k, v in ns.items()} for ns in namespaces]
    originals = [inspect.getattr_static(owner, attr) for owner, attr in hooks]

    # installed() raises AttributeError if a hooked name has left the package
    with tracing.Tracer().installed():
        for (owner, attr), original in zip(hooks, originals):
            assert inspect.getattr_static(owner, attr) is not original, attr

    for (owner, attr), original in zip(hooks, originals):
        assert inspect.getattr_static(owner, attr) is original, attr
    assert [{k: id(v) for k, v in ns.items()} for ns in namespaces] == before


def test_tracer_counters_read_the_depth_table_and_prune_sequence(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(CLIBENCH))
    tracing = importlib.import_module("tracing")
    from coastrank import cli
    from coastrank.fileio import write_rankings
    from coastrank.models import random_mallows_mixture_spec, sample_mixture
    from coastrank.tree import CoastTree

    spec = random_mallows_mixture_spec(n=6, k=3, phi=1.0, seed=4)
    write_rankings(sample_mixture(spec, 300), tmp_path / "fit.rnk")
    write_rankings(sample_mixture(spec.with_seed(5), 23), tmp_path / "query.rnk")
    fit, query = str(tmp_path / "fit.rnk"), str(tmp_path / "query.rnk")
    tree, sub = str(tmp_path / "tree.json"), str(tmp_path / "sub.json")
    assert cli.main(["fit", "--input", fit, "--epsilon", "0", "--max-leaves", "5",
                     "--out", tree]) == 0
    leaves = CoastTree.from_json_obj(json.loads(Path(tree).read_text())).leaf_count
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.main(["prune", "--tree", tree, "--input", fit, "--lambda", "0",
                         "--out", sub]) == 0
        for command in ("depth", "anomaly"):
            assert cli.main([command, "--tree", sub, "--fit", fit, "--query", query,
                             "--out", str(tmp_path / f"{command}.csv")]) == 0
    assert leaves > 2 and tracer.counts["tree.collapses"] == leaves - 1
    assert tracer.counts["analysis.local_depths.queries"] == 2 * 23
    # both commands call local_depths through the cli module's attribute
    parents = [tracer.spans[parent][0] for name, _, _, parent in tracer.spans
               if name == "analysis.local_depths"]
    assert parents == ["cli.depth", "cli.anomaly"]
