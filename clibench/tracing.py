"""Spans and counters recorded around coastrank's public functions, from outside.

``Tracer.installed()`` replaces module attributes with timing wrappers and
puts the originals back on exit, so the program itself carries no
instrumentation. coastrank's modules import each other's functions by name,
so a function is replaced under every name that binds it in every coastrank
module (``coastrank.cli.load_rankings`` and ``coastrank.fileio.load_rankings``
alike); methods are replaced on their class.

Each span records name, start, end and the index of its parent span. A
layer's self time is its span's duration minus the durations of its child
spans; spans nest strictly, because the pipeline runs on one thread
(``RANK_THREADS=1``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

MODULES = ("analysis", "cells", "cli", "consensus", "fileio", "models", "perms",
           "transport", "tree")
CLI_COMMANDS = ("sample", "fit", "prune", "eval", "depth", "anomaly")


def _hooks(m):
    """(owner, attribute, name, mode, counter) for every wrapped call.

    mode "span" records a span, "count" only counts calls (for calls too
    frequent and too short to time), and "factory" wraps the callable the
    function returns in a span.
    """

    def add(key, value):
        return lambda counts, args, result: counts.update({key: value(args, result)})

    hooks = [(m["cli"], f"cmd_{c}", f"cli.{c}", "span", None) for c in CLI_COMMANDS]
    hooks += [
        (m["fileio"], "load_rankings", "fileio.load_rankings", "span",
         add("fileio.rows_parsed", lambda a, r: len(r))),
        (m["fileio"], "sha256_of", "fileio.sha256_of", "span", None),
        (m["perms"], "comparison_matrix", "perms.comparison_matrix", "span",
         add("perms.comparison_matrix.bytes", lambda a, r: r.nbytes)),
        (m["perms"].RankingSample, "subset", "perms.subset", "span",
         add("perms.subset.rows", lambda a, r: len(r))),
        (m["perms"].DiscreteRankingDistribution, "empirical", "perms.empirical", "span", None),
        (m["cells"].Cell, "membership_mask", "cells.membership_mask", "span", None),
        (m["cells"].Cell, "contains", "cells.contains", "count", None),
        (m["tree"], "grow", "tree.grow", "span",
         lambda counts, a, r: counts.update({
             "tree.splits": sum(len(st.splits) for st in r[1].steps),
             "tree.leaves": r[0].leaf_count})),
        (m["tree"], "prune_sequence", "tree.prune_sequence", "span",
         add("tree.collapses", lambda a, r: len(r) - 1)),
        (m["tree"].CoastTree, "route_sample", "tree.route_sample", "span",
         add("tree.route_sample.rows", lambda a, r: len(r))),
        (m["consensus"], "make_aggregator", "consensus.aggregate", "factory", None),
        (m["consensus"], "exact_kemeny", "consensus.exact_kemeny", "span", None),
        (m["consensus"], "copeland_median", "consensus.copeland_median", "span", None),
        (m["consensus"], "depth_climb_median", "consensus.depth_climb_median", "span", None),
        (m["transport"], "distortion_report", "transport.distortion_report", "span", None),
        (m["transport"], "wasserstein", "transport.wasserstein", "span",
         add("transport.support_pairs", lambda a, r: a[0].size * a[1].size)),
        (m["analysis"], "local_depths", "analysis.local_depths", "span",
         add("analysis.local_depths.queries", lambda a, r: len(r))),
        (m["models"], "sample_mixture", "models.sample_mixture", "span", None),
    ]
    return hooks


class Tracer:
    """In-memory spans ``[name, start, end, parent]`` and exact counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _timed(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _factory(self, name, make):
        """``make`` whose returned callable records a span."""

        @functools.wraps(make)
        def wrapper(*args, **kwargs):
            return self._timed(name, make(*args, **kwargs), None)

        return wrapper

    @contextmanager
    def installed(self):
        mods = {name: importlib.import_module(f"coastrank.{name}") for name in MODULES}
        restore = []
        try:
            for owner, attr, name, mode, count in _hooks(mods):
                original = inspect.getattr_static(owner, attr)
                fn = original.__func__ if isinstance(original, classmethod) else original
                if mode == "factory":
                    wrapped = self._factory(name, fn)
                elif mode == "count":
                    wrapped = self._counted(name, fn)
                else:
                    wrapped = self._timed(name, fn, count)
                if isinstance(original, classmethod):
                    wrapped = classmethod(wrapped)
                if isinstance(owner, type):
                    targets = [(owner, attr)]
                else:
                    targets = [(mod, key) for mod in mods.values()
                               for key, value in vars(mod).items() if value is original]
                for target, key in targets:
                    restore.append((target, key, vars(target)[key]))
                    setattr(target, key, wrapped)
            yield self
        finally:
            for target, key, original in reversed(restore):
                setattr(target, key, original)

    # -- derived figures ------------------------------------------------------

    def layer_totals(self, root: int) -> dict[str, dict[str, float]]:
        """Per span name below ``root``: calls, total seconds and self seconds."""
        below = {root}
        child_time = defaultdict(float)
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if parent in below:
                below.add(idx)
                child_time[parent] += end - start
        for idx in sorted(below - {root}):
            name, start, end, _ = self.spans[idx]
            t = totals[name]
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += (end - start) - child_time[idx]
        return dict(totals)

    def self_time(self, idx: int) -> float:
        name, start, end, _ = self.spans[idx]
        kids = sum(e - s for _, s, e, p in self.spans if p == idx)
        return (end - start) - kids

    def duration(self, idx: int) -> float:
        return self.spans[idx][2] - self.spans[idx][1]
