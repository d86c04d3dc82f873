"""Core permutation machinery: distances, marginals, risk identities."""

import itertools

import numpy as np
import pytest

from coastrank.errors import (
    DimensionMismatchError,
    EnumerationLimitError,
    RejectedInputError,
)
from coastrank.perms import (
    DiscreteRankingDistribution,
    PairwiseMatrix,
    Permutation,
    RankingSample,
    enumerate_permutations,
    kendall_tau,
    kendall_tau_pairs,
    num_pairs,
    pairwise_marginals,
    ranking_depth,
    ranking_risk,
    risk_from_marginals,
)

from conftest import random_permutation, random_sample
from oracles import brute_risk, naive_kendall


def test_permutation_validation():
    with pytest.raises(RejectedInputError):
        Permutation((0, 0, 1))
    with pytest.raises(RejectedInputError):
        Permutation((1, 2, 3))
    with pytest.raises(RejectedInputError):
        Permutation(())
    Permutation((0,))  # n=1 is legal


def test_permutation_round_trips(rng):
    for _ in range(50):
        n = int(rng.integers(1, 12))
        p = random_permutation(rng, n)
        assert Permutation.from_ordering(p.ordering()) == p
        assert Permutation.from_one_based(p.to_one_based()) == p
    assert Permutation.identity(4).ordering() == (0, 1, 2, 3)
    assert Permutation.reverse(3).ordering() == (2, 1, 0)


def test_kendall_identity_reverse():
    assert kendall_tau(Permutation.identity(4), Permutation.reverse(4)) == 6
    assert kendall_tau(Permutation.identity(9), Permutation.identity(9)) == 0
    assert kendall_tau(Permutation((0,)), Permutation((0,))) == 0


def test_kendall_max_iff_reversal():
    # the diameter n(n-1)/2 is attained exactly at the reversal of sigma
    for sigma in enumerate_permutations(4):
        rev = Permutation(tuple(3 - r for r in sigma.ranks))
        attained = [
            tau for tau in enumerate_permutations(4) if kendall_tau(sigma, tau) == 6
        ]
        assert attained == [rev]


def test_kendall_matches_reference(rng):
    for _ in range(300):
        n = int(rng.integers(2, 9))
        a, b = random_permutation(rng, n), random_permutation(rng, n)
        assert kendall_tau(a, b) == kendall_tau_pairs(a, b) == naive_kendall(a, b)
    for n in (40, 150):
        a, b = random_permutation(rng, n), random_permutation(rng, n)
        assert kendall_tau(a, b) == kendall_tau_pairs(a, b)


def test_kendall_metric_axioms(rng):
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        a, b, c = (random_permutation(rng, n) for _ in range(3))
        dab = kendall_tau(a, b)
        assert dab == kendall_tau(b, a)
        assert (dab == 0) == (a == b)
        assert dab <= kendall_tau(a, c) + kendall_tau(c, b)
        assert 0 <= dab <= num_pairs(n)


def test_kendall_right_invariance(rng):
    for _ in range(300):
        n = int(rng.integers(2, 9))
        a, b, c = (random_permutation(rng, n) for _ in range(3))
        assert kendall_tau(a.compose(c), b.compose(c)) == kendall_tau(a, b)


def test_kendall_size_mismatch():
    with pytest.raises(DimensionMismatchError):
        kendall_tau(Permutation.identity(3), Permutation.identity(4))


def test_distance_matrix_matches_pairwise(rng):
    s = random_sample(rng, 6, 40)
    d = s.distance_matrix
    for i in range(0, 40, 7):
        for j in range(0, 40, 5):
            assert d[i, j] == kendall_tau(s[i], s[j])
    assert np.all(d == d.T)
    assert np.all(np.diag(d) == 0)


def test_enumerate_permutations():
    perms = list(enumerate_permutations(4))
    assert len(perms) == 24
    assert len(set(perms)) == 24
    ranks = [p.ranks for p in perms]
    assert ranks == sorted(ranks)  # deterministic lexicographic order
    assert perms[0] == Permutation.identity(4)
    assert perms[-1] == Permutation.reverse(4)
    with pytest.raises(EnumerationLimitError):
        list(enumerate_permutations(10))
    assert len(list(enumerate_permutations(10, limit=10))) > 0  # override allowed


def test_marginals_complement_exact(rng):
    for trial in range(20):
        n = int(rng.integers(2, 8))
        s = random_sample(rng, n, int(rng.integers(1, 120)))
        m = pairwise_marginals(s)
        # complement holds exactly for empirical counts, not just within tolerance
        assert np.all(m.p + m.p.T == 1.0)
        assert np.all(np.diag(m.p) == 0.5)


def test_marginals_uniform_sample():
    s = RankingSample(tuple(enumerate_permutations(3)))
    m = pairwise_marginals(s)
    assert np.all(m.p == 0.5)


def test_marginals_against_counts(rng):
    s = random_sample(rng, 5, 37)
    m = pairwise_marginals(s)
    for i, j in itertools.combinations(range(5), 2):
        cnt = sum(1 for p in s.rankings if p.ranks[i] < p.ranks[j])
        assert m.p[i, j] == cnt / 37


def test_pairwise_matrix_validation():
    bad = np.full((3, 3), 0.5)
    bad[0, 1] = 0.7  # complement broken
    with pytest.raises(RejectedInputError):
        PairwiseMatrix(3, bad)
    good = np.full((3, 3), 0.5)
    good[0, 1], good[1, 0] = 0.7, 0.3
    assert PairwiseMatrix(3, good).margin() == pytest.approx(0.0)


def test_ranking_risk_uniform():
    # uniform over S_3: every ranking has risk 3/2 and depth 3/2
    d = DiscreteRankingDistribution.empirical(RankingSample(tuple(enumerate_permutations(3))))
    for sigma in enumerate_permutations(3):
        assert ranking_risk(d, sigma) == pytest.approx(1.5)
        assert ranking_depth(d, sigma) == pytest.approx(1.5)


def test_risk_marginal_identity(rng):
    # risk computed from pairwise marginals equals the definitional risk
    for _ in range(50):
        n = int(rng.integers(2, 7))
        s = random_sample(rng, n, int(rng.integers(2, 60)))
        d = DiscreteRankingDistribution.empirical(s)
        m = d.marginals()
        sigma = random_permutation(rng, n)
        direct = ranking_risk(d, sigma)
        assert direct == pytest.approx(brute_risk(d, sigma), abs=1e-12)
        assert direct == pytest.approx(risk_from_marginals(m, sigma), abs=1e-10)


def test_depth_of_point_mass():
    sigma = Permutation((2, 0, 1, 3))
    d = DiscreteRankingDistribution(4, (sigma,), np.array([1.0]))
    assert ranking_depth(d, sigma) == num_pairs(4)


def test_empirical_distribution(rng):
    s = RankingSample(
        (Permutation.identity(3), Permutation.identity(3), Permutation.reverse(3))
    )
    d = DiscreteRankingDistribution.empirical(s)
    assert d.size == 2
    assert d.prob_of(Permutation.identity(3)) == pytest.approx(2 / 3)
    assert d.prob_of(Permutation.reverse(3)) == pytest.approx(1 / 3)
    mass, cond = d.condition(np.array([True, False]))
    assert mass == pytest.approx(2 / 3)
    assert cond.size == 1 and cond.weights[0] == 1.0
    mass0, cond0 = d.condition(np.array([False, False]))
    assert mass0 == 0.0 and cond0 is None


def test_distribution_validation():
    with pytest.raises(RejectedInputError):
        DiscreteRankingDistribution(
            3, (Permutation.identity(3), Permutation.identity(3)), np.array([0.5, 0.5])
        )
    with pytest.raises(RejectedInputError):
        DiscreteRankingDistribution(3, (Permutation.identity(3),), np.array([0.9]))


def test_sample_validation():
    with pytest.raises(RejectedInputError):
        RankingSample(())
    with pytest.raises(DimensionMismatchError):
        RankingSample((Permutation.identity(3), Permutation.identity(4)))
    with pytest.raises(DimensionMismatchError):
        RankingSample((Permutation.identity(3),), labels=("a", "b"))


def test_from_ranks_matches_permutation_constructor(rng):
    s = random_sample(rng, 6, 40)
    t = RankingSample.from_ranks(s.ranks_matrix.astype(np.int64), labels=range(40))
    assert t.rankings == s.rankings
    assert t[7] == s[7] and t[-1] == s[-1]
    assert np.array_equal(t.comparisons, s.comparisons)
    assert t.labels == tuple(range(40))
    sub = t.subset([3, 1, 3])
    assert sub.rankings == (s[3], s[1], s[3]) and sub.labels == (3, 1, 3)
    assert np.array_equal(sub.comparisons, s.comparisons[[3, 1, 3]])


@pytest.mark.parametrize(
    "ranks",
    [
        [[0, 1, 2], [2, 1, 0], [0, 0, 2]],
        [[0, 1, 2], [1, 2, 3]],
        [[0, 1, 2], [-1, 0, 1]],
        [[0.0, 1.0, 2.0]],
        [[]],
        [0, 1, 2],
    ],
)
def test_from_ranks_rejects_non_permutations(ranks):
    with pytest.raises(RejectedInputError):
        RankingSample.from_ranks(np.array(ranks))


def test_from_ranks_names_first_bad_row():
    with pytest.raises(RejectedInputError, match="row 2 "):
        RankingSample.from_ranks(np.array([[0, 1], [1, 0], [1, 1], [0, 0]]))
    with pytest.raises(DimensionMismatchError):
        RankingSample.from_ranks(np.array([[0, 1]]), labels=("a", "b"))


def test_empirical_support_in_sorted_tuple_order(rng):
    s = RankingSample(tuple(random_permutation(rng, 4) for _ in range(200)))
    counts = {}
    for p in s.rankings:
        counts[p.ranks] = counts.get(p.ranks, 0) + 1
    dist = DiscreteRankingDistribution.empirical(s)
    assert [p.ranks for p in dist.support] == sorted(counts)
    assert dist.weights.tolist() == [counts[r] / 200 for r in sorted(counts)]
