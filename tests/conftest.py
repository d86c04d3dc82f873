"""Shared generators for seeded randomized tests."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import coastrank.perms as perms_mod
from coastrank.perms import (
    DiscreteRankingDistribution,
    PairwiseMatrix,
    Permutation,
    RankingSample,
    comparison_matrix,
    num_pairs,
)


def set_comparison_rows(monkeypatch, n: int, rows: int) -> None:
    """Make every pass over comparison rows of n items take blocks of ``rows`` rows."""
    monkeypatch.setattr(perms_mod, "COMPARISON_ENTRIES", rows * num_pairs(n))


def random_permutation(rng: np.random.Generator, n: int) -> Permutation:
    return Permutation(tuple(int(x) for x in rng.permutation(n)))


def random_sample(rng: np.random.Generator, n: int, size: int) -> RankingSample:
    return RankingSample(tuple(random_permutation(rng, n) for _ in range(size)))


def random_marginals(rng: np.random.Generator, n: int, size: int) -> PairwiseMatrix:
    """Pairwise marginals of a random sample of the given size."""
    s = random_sample(rng, n, size)
    return PairwiseMatrix.from_comparisons(s.n, comparison_matrix(s.ranks_matrix))


def reversal(n: int) -> Permutation:
    """The ranking that reverses the item order: item i gets rank n - 1 - i."""
    return Permutation(tuple(range(n - 1, -1, -1)))


def random_rational_distribution(
    rng: np.random.Generator, n: int, max_support: int = 12, denom_cap: int = 40
) -> DiscreteRankingDistribution:
    """Random distribution with rational weights k/m (exact for transport tests)."""
    size = min(int(rng.integers(1, max_support + 1)), math.factorial(n))
    seen = {}
    while len(seen) < size:
        p = random_permutation(rng, n)
        seen[p.ranks] = p
    support = [seen[r] for r in sorted(seen)]
    counts = rng.integers(1, denom_cap, size=len(support))
    weights = counts / counts.sum()
    return DiscreteRankingDistribution(n, tuple(support), weights)


def record_permutation_builds(monkeypatch) -> list:
    """A list that gains an entry for every Permutation built, checked or not."""
    built = []
    trusted, checked = Permutation._trusted, Permutation.__post_init__
    monkeypatch.setattr(Permutation, "_trusted", classmethod(lambda cls, r: built.append(r) or trusted(r)))
    monkeypatch.setattr(Permutation, "__post_init__", lambda p: built.append(p) or checked(p))
    return built


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def spec_document() -> dict:
    """A valid two-component mixture spec document over 5 items."""
    return {
        "n": 5,
        "seed": 3,
        "components": [
            {"type": "mallows", "center": [1, 2, 3, 4, 5], "phi": 0.5, "mix": 0.5},
            {"type": "plackett_luce", "weights": [1, 2, 3, 4, 5], "mix": 0.5},
        ],
    }


def malformed_spec_documents() -> list:
    """(name, document, text the error must contain) for specs the loader rejects."""
    cases = []

    def case(name, needle, edit):
        doc = spec_document()
        edit(doc)
        cases.append((name, doc, needle))

    case("missing-phi", "component 0", lambda d: d["components"][0].pop("phi"))
    case("component-not-object", "component 0", lambda d: d.update(components=[5]))
    case("phi-not-number", "component 0", lambda d: d["components"][0].update(phi="x"))
    case("worth-not-number", "component 1",
         lambda d: d["components"][1].update(weights=[1, "a", 2]))
    case("mix-is-list", "component 0", lambda d: d["components"][0].update(mix=[1]))
    case("components-null", "components", lambda d: d.update(components=None))
    case("negative-seed", "seed", lambda d: d.update(seed=-2))
    # integer fields take JSON integers only: no truncation, no bool or string
    case("n-float", "mixture n must be an integer, got 5.0", lambda d: d.update(n=5.0))
    case("seed-float", "mixture seed must be an integer, got 1.7", lambda d: d.update(seed=1.7))
    for name, entry in (("float", 1.5), ("bool", True), ("str", "1")):
        case(f"center-entry-{name}", f"center entry must be an integer, got {entry!r}",
             lambda d, e=entry: d["components"][0]["center"].__setitem__(0, e))
    return cases
