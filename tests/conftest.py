"""Shared generators for seeded randomized tests."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from coastrank.perms import DiscreteRankingDistribution, Permutation, RankingSample


def random_permutation(rng: np.random.Generator, n: int) -> Permutation:
    return Permutation(tuple(int(x) for x in rng.permutation(n)))


def random_sample(rng: np.random.Generator, n: int, size: int) -> RankingSample:
    return RankingSample(tuple(random_permutation(rng, n) for _ in range(size)))


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
