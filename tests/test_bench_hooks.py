"""The benchmark's tracer finds every name it hooks, and puts each one back."""

import importlib
import inspect
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
