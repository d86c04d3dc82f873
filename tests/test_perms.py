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
    comparison_block,
    comparison_counts,
    comparison_matrix,
    comparison_rows,
    inverse_rows,
    kendall_tau,
    num_pairs,
    pair_indices,
    ranking_risk,
    risk_from_marginals,
    symmetric_group,
)

from conftest import (
    random_marginals,
    random_permutation,
    random_sample,
    reversal,
    set_comparison_rows,
)
from oracles import (
    brute_risk,
    compose,
    condition,
    dict_from_pairs,
    enumerate_permutations,
    gathered_comparison_matrix,
    kendall_tau_pairs,
    loop_check_support,
    loop_inverse_rows,
    loop_risk_from_marginals,
    merge_sort_kendall,
    naive_kendall,
    ranking_depth,
)


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
    assert reversal(3).ordering() == (2, 1, 0)


def test_kendall_identity_reverse():
    assert kendall_tau(Permutation.identity(4), reversal(4)) == 6
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
        assert kendall_tau(a, b) == merge_sort_kendall(a, b)
    for n in (40, 150):
        a, b = random_permutation(rng, n), random_permutation(rng, n)
        assert kendall_tau(a, b) == kendall_tau_pairs(a, b) == merge_sort_kendall(a, b)


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
        assert kendall_tau(compose(a, c), compose(b, c)) == kendall_tau(a, b)


def test_kendall_size_mismatch():
    with pytest.raises(DimensionMismatchError):
        kendall_tau(Permutation.identity(3), Permutation.identity(4))


def test_enumerate_permutations():
    perms = list(enumerate_permutations(4))
    assert len(perms) == 24
    assert len(set(perms)) == 24
    ranks = [p.ranks for p in perms]
    assert ranks == sorted(ranks)  # deterministic lexicographic order
    assert perms[0] == Permutation.identity(4)
    assert perms[-1] == reversal(4)
    assert np.array_equal(ranks, symmetric_group(4)[0])  # the table the package computes with
    with pytest.raises(EnumerationLimitError):
        list(enumerate_permutations(10))
    assert next(enumerate_permutations(10, limit=10)) == Permutation.identity(10)  # override allowed


def test_marginals_complement_exact(rng):
    for trial in range(20):
        n = int(rng.integers(2, 8))
        s = random_sample(rng, n, int(rng.integers(1, 120)))
        m = PairwiseMatrix.from_comparisons(s.n, comparison_matrix(s.ranks_matrix))
        # complement holds exactly for empirical counts, not just within tolerance
        assert np.all(m.p + m.p.T == 1.0)
        assert np.all(np.diag(m.p) == 0.5)


def test_marginals_uniform_sample():
    s = RankingSample(tuple(enumerate_permutations(3)))
    m = PairwiseMatrix.from_comparisons(s.n, comparison_matrix(s.ranks_matrix))
    assert np.all(m.p == 0.5)


def test_marginals_against_counts(rng):
    s = random_sample(rng, 5, 37)
    m = PairwiseMatrix.from_comparisons(s.n, comparison_matrix(s.ranks_matrix))
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


def test_from_counts_checks_only_its_upper_triangle():
    m = PairwiseMatrix.from_counts(3, np.array([3, 0, 5]), 5)
    assert np.array_equal(m.p, [[0.5, 0.6, 0.0], [0.4, 0.5, 1.0], [1.0, 0.0, 0.5]])
    assert np.array_equal(PairwiseMatrix(3, m.p).p, m.p)  # it passes every public check
    for counts in ([6, 0, 5], [-1, 0, 5]):  # more rows before than rows, or fewer than none
        with pytest.raises(RejectedInputError, match="outside"):
            PairwiseMatrix.from_counts(3, np.array(counts), 5)
    with pytest.raises(RejectedInputError, match="finite"):
        PairwiseMatrix.from_counts(3, np.array([np.nan, 0.0, 5.0]), 5)
    with pytest.raises(RejectedInputError, match="finite"):
        PairwiseMatrix.from_comparisons(3, np.ones((2, 3), dtype=bool), [np.nan, 1.0])
    # the public constructor still checks the complement and the diagonal
    for broken in ((0, 1, 0.7), (1, 1, 0.4)):
        p = m.p.copy()
        p[broken[:2]] = broken[2]
        with pytest.raises(RejectedInputError):
            PairwiseMatrix(3, p)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_pairwise_matrix_rejects_non_finite_entries(value):
    # every range and complement check is false for NaN, so it is caught first
    for i, j in [(0, 1), (1, 0), (2, 2)]:
        p = np.full((3, 3), 0.5)
        p[i, j] = value
        with pytest.raises(RejectedInputError, match="finite"):
            PairwiseMatrix(3, p)
    p = np.full((3, 3), 0.5)
    p[0, 1] = p[1, 0] = value
    with pytest.raises(RejectedInputError, match="finite"):
        PairwiseMatrix(3, p)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 50])
def test_pair_indices_are_a_shared_read_only_triu_table(n):
    i, j = pair_indices(n)
    want_i, want_j = np.triu_indices(n, 1)
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
    assert list(zip(i.tolist(), j.tolist())) == list(itertools.combinations(range(n), 2))
    assert pair_indices(n)[0] is i and pair_indices(n)[1] is j
    for a in (i, j):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


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
        (Permutation.identity(3), Permutation.identity(3), reversal(3))
    )
    d = DiscreteRankingDistribution.empirical(s)
    assert d.size == 2
    assert d.prob_of(Permutation.identity(3)) == pytest.approx(2 / 3)
    assert d.prob_of(reversal(3)) == pytest.approx(1 / 3)
    mass, cond = condition(d, np.array([True, False]))
    assert mass == pytest.approx(2 / 3)
    assert cond.size == 1 and cond.weights[0] == 1.0
    mass0, cond0 = condition(d, np.array([False, False]))
    assert mass0 == 0.0 and cond0 is None


def test_empirical_distribution_keeps_its_row_counts(rng):
    s = random_sample(rng, 4, 90)
    d = DiscreteRankingDistribution.empirical(s)
    assert d.counts.dtype == np.int64 and d.counts.sum() == 90
    assert np.array_equal(d.weights, d.counts / 90)  # bit for bit
    for k, p in zip(d.counts, d.support):
        assert k == sum(q == p for q in s.rankings)


def test_from_pairs_merges_counts_with_weights():
    e, r = Permutation.identity(3), reversal(3)
    d = DiscreteRankingDistribution.from_pairs([(r, 0.25), (e, 0.5), (r, 0.25)], [1, 2, 1])
    assert d.support == (e, r)
    assert d.weights.tolist() == [0.5, 0.5] and d.counts.tolist() == [2, 2]
    assert DiscreteRankingDistribution.from_pairs([(e, 1.0)]).counts is None
    with pytest.raises(ValueError):
        DiscreteRankingDistribution.from_pairs([(e, 0.5), (r, 0.5)], [1])


@pytest.mark.parametrize("counts", [[1, 1], [3, -1], [0, 0], [1.0, 3.0], [1, 3, 0]])
def test_distribution_rejects_counts_that_do_not_give_its_weights(counts):
    e, r = Permutation.identity(3), reversal(3)
    with pytest.raises(RejectedInputError, match="counts"):
        DiscreteRankingDistribution(3, (e, r), np.array([0.25, 0.75]), np.array(counts))


def test_distribution_validation():
    with pytest.raises(RejectedInputError):
        DiscreteRankingDistribution(
            3, (Permutation.identity(3), Permutation.identity(3)), np.array([0.5, 0.5])
        )
    with pytest.raises(RejectedInputError):
        DiscreteRankingDistribution(3, (Permutation.identity(3),), np.array([0.9]))


def test_distribution_rejections_fire_in_both_public_constructors():
    e, r = Permutation.identity(3), reversal(3)
    with pytest.raises(DimensionMismatchError, match="wrong size"):
        DiscreteRankingDistribution(3, (e, Permutation.identity(4)), np.array([0.5, 0.5]))
    with pytest.raises(DimensionMismatchError, match="wrong size"):
        DiscreteRankingDistribution.from_pairs([(e, 0.5), (Permutation.identity(4), 0.5)])
    with pytest.raises(RejectedInputError, match="distinct"):
        DiscreteRankingDistribution(3, (e, r, e), np.array([0.25, 0.5, 0.25]))
    with pytest.raises(RejectedInputError, match="negative"):
        DiscreteRankingDistribution(3, (e, r), np.array([1.5, -0.5]))
    with pytest.raises(RejectedInputError, match="negative"):
        DiscreteRankingDistribution.from_pairs([(e, 1.5), (r, -0.5)])
    with pytest.raises(RejectedInputError, match="not 1"):
        DiscreteRankingDistribution(3, (e, r), np.array([0.5, 0.4]))
    with pytest.raises(RejectedInputError, match="not 1"):
        DiscreteRankingDistribution.from_pairs([(e, 0.5), (r, 0.4)])
    # the trusted builder skips the support checks, not the weight checks
    with pytest.raises(RejectedInputError, match="not 1"):
        DiscreteRankingDistribution._trusted(3, np.array([e.ranks, r.ranks]), np.array([0.5, 0.4]))


def random_pairs(rng, n, k):
    """k (permutation, weight) pairs drawn from a few points, so most points repeat."""
    points = [random_permutation(rng, n) for _ in range(max(1, k // 3))]
    w = rng.random(k)
    return [(points[int(i)], float(x)) for i, x in zip(rng.integers(len(points), size=k), w / w.sum())]


def test_from_pairs_equals_the_dict_merge(rng):
    for n, k in [(1, 4), (3, 7), (4, 30), (6, 90)]:
        pairs = random_pairs(rng, n, k)
        support, weights, _ = dict_from_pairs(pairs)
        d = DiscreteRankingDistribution.from_pairs(pairs)
        assert d.support == support
        assert d.weights.tobytes() == weights.tobytes()  # bit for bit, same order
        # with counts, the weights are the counts' shares
        counts = rng.integers(1, 9, size=k)
        pairs = [(p, c / counts.sum()) for (p, _), c in zip(pairs, counts)]
        support, weights, tally = dict_from_pairs(pairs, counts.tolist())
        d = DiscreteRankingDistribution.from_pairs(pairs, counts.tolist())
        assert d.support == support
        assert d.weights.tobytes() == weights.tobytes()
        assert d.counts.dtype == np.int64 and np.array_equal(d.counts, tally)


def test_from_pairs_rejects_empty_and_mixed_sizes():
    with pytest.raises(RejectedInputError, match="empty support"):
        DiscreteRankingDistribution.from_pairs([])
    with pytest.raises(DimensionMismatchError):
        DiscreteRankingDistribution.from_pairs(
            [(Permutation.identity(4), 0.5), (Permutation.identity(3), 0.5)]
        )


def test_support_checks_match_the_point_loop():
    e, r, f = Permutation.identity(3), reversal(3), Permutation.identity(4)
    for support in [(), (e,), (f,), (e, r), (e, f), (f, e), (e, r, e), (r, r)]:
        weights = np.full(len(support), 1 / max(len(support), 1))
        try:
            loop_check_support(3, support)
            want = None
        except RejectedInputError as exc:
            want = type(exc)
        if want is None:
            assert DiscreteRankingDistribution(3, support, weights).size == len(support)
        else:
            with pytest.raises(want) as got:
                DiscreteRankingDistribution(3, support, weights)
            assert type(got.value) is want


def test_support_round_trips_to_the_rank_array(rng):
    s = random_sample(rng, 5, 60)
    built = [
        DiscreteRankingDistribution.empirical(s),
        DiscreteRankingDistribution.from_pairs(random_pairs(rng, 4, 20)),
    ]
    built.append(DiscreteRankingDistribution(4, built[1].support, built[1].weights))
    for d in built:
        assert not d.ranks.flags.writeable
        assert d.ranks.shape == (d.size, d.n)
        assert np.array_equal(np.array([p.ranks for p in d.support]), d.ranks)
        again = DiscreteRankingDistribution(d.n, d.support, d.weights)
        assert np.array_equal(again.ranks, d.ranks)


def test_risk_and_mass_equal_the_point_loops(rng):
    for n in (1, 3, 5, 7):
        d = DiscreteRankingDistribution.empirical(random_sample(rng, n, 40))
        for sigma in list(d.support[:3]) + [random_permutation(rng, n) for _ in range(3)]:
            assert ranking_risk(d, sigma) == brute_risk(d, sigma)  # same sum, bit for bit
            want = next((w for p, w in zip(d.support, d.weights) if p == sigma), 0.0)
            assert d.prob_of(sigma) == want
        assert d.prob_of(Permutation.identity(n + 1)) == 0.0


def test_inverse_rows_in_range_rows_keep_their_gaps():
    a = np.array([[0, 0, 1], [2, 0, 1], [1, 1, 1]])
    inv = inverse_rows(a)
    assert (inv < 0).any(axis=1).tolist() == [True, False, True]
    assert inv[1].tolist() == [1, 2, 0]
    assert inverse_rows(np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)


@pytest.mark.parametrize("entries", [1, 7, 64, 1 << 16])
def test_inverse_rows_by_row_blocks_equals_the_row_loop(monkeypatch, entries):
    import coastrank.perms as perms

    monkeypatch.setattr(perms, "BLOCK_ENTRIES", entries)
    rng = np.random.default_rng(entries)
    a = np.argsort(rng.random((300, 6)), axis=1)
    a[[3, 250]] = a[[3, 250], ::-1]
    a[200, 2] = 6  # out of range in a later block; its slot would be the next row's first
    a[201, 0] = a[201, 1]  # a repeat in the row after it
    a[297, 5] = -1
    assert np.array_equal(inverse_rows(a), loop_inverse_rows(a))
    assert (inverse_rows(a) < 0).any(axis=1).nonzero()[0].tolist() == [200, 201, 297]
    small = a.astype(np.uint8)[:40]
    assert np.array_equal(inverse_rows(small), loop_inverse_rows(small))


@pytest.mark.parametrize("n", [1, 2, 7, 20, 50])
def test_risk_from_marginals_equals_the_pair_loop(rng, n):
    # bit for bit: the same additions in the same order as the loop
    cases = [random_marginals(rng, n, size) for size in (1, 3, 7)]
    for _ in range(3):
        upper = rng.random(num_pairs(n))
        p = np.full((n, n), 0.5)
        p[np.triu_indices(n, 1)] = upper
        p[np.tril_indices(n, -1)] = (1.0 - p.T)[np.tril_indices(n, -1)]
        cases.append(PairwiseMatrix(n, p))
    for m in cases:
        for _ in range(10):
            sigma = random_permutation(rng, n)
            assert risk_from_marginals(m, sigma) == loop_risk_from_marginals(m, sigma)


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
    assert t.ranks_matrix.dtype == np.int32 and np.array_equal(t.ranks_matrix, s.ranks_matrix)
    assert t.labels == tuple(range(40))
    sub = t.subset([3, 1, 3])
    assert sub.rankings == (s[3], s[1], s[3]) and sub.labels == (3, 1, 3)
    assert np.array_equal(sub.ranks_matrix, s.ranks_matrix[[3, 1, 3]])
    # the rank matrix is a sample's only state: no comparison matrix is kept
    assert not hasattr(sub, "comparisons") and not hasattr(RankingSample, "comparisons")


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


def test_out_of_range_values_land_in_no_other_row():
    # unmasked, row 0's 3 would fill the empty slot 0 of row 1, and row 3's -1
    # the empty slot 2 of row 2, so rows 1 and 2 would pass as permutations
    a = np.array([[0, 1, 3], [1, 1, 2], [0, 1, 1], [2, 1, -1]])
    assert np.flatnonzero((inverse_rows(a) < 0).any(axis=1)).tolist() == [0, 1, 2, 3]
    with pytest.raises(RejectedInputError, match="row 1 "):
        RankingSample.from_ranks(np.array([[0, 1, 2], [0, 1, 1], [2, 1, -1]]))
    assert inverse_rows(np.array([[2, 0, 1], [1, 2, 0]])).tolist() == [[1, 2, 0], [2, 0, 1]]


def test_empirical_support_in_sorted_tuple_order(rng):
    s = RankingSample(tuple(random_permutation(rng, 4) for _ in range(200)))
    counts = {}
    for p in s.rankings:
        counts[p.ranks] = counts.get(p.ranks, 0) + 1
    dist = DiscreteRankingDistribution.empirical(s)
    assert [p.ranks for p in dist.support] == sorted(counts)
    assert dist.weights.tolist() == [counts[r] / 200 for r in sorted(counts)]


@pytest.mark.parametrize("n, size", [(1, 5), (2, 9), (7, 0), (8, 300), (20, 64)])
@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8])
def test_comparison_matrix_equals_gathered_form(rng, n, size, dtype):
    ranks = np.argsort(rng.random((size, n)), axis=1).astype(dtype)
    x = comparison_matrix(ranks)
    assert x.dtype == bool and x.shape == (size, num_pairs(n))
    assert x.flags["F_CONTIGUOUS"]  # weighted marginals and exact_kemeny sum in this order
    assert np.array_equal(x, gathered_comparison_matrix(ranks))


def block_rows_of(rng, size: int, kind: str) -> np.ndarray:
    """Row indices of each kind a block of comparison rows is built from."""
    return {
        "sorted": np.sort(rng.choice(size, size // 3, replace=False)),
        "unsorted": rng.permutation(size)[: size // 3],
        "repeated": rng.integers(0, size, size),
        "empty": np.arange(0),
    }[kind]


@pytest.mark.parametrize("n", [1, 2, 7, 20, 50, 300])  # 300: ranks compared as uint16
@pytest.mark.parametrize("kind", ["sorted", "unsorted", "repeated", "empty"])
def test_comparison_block_equals_the_matrix_rows(rng, n, kind):
    ranks = np.argsort(rng.random((45, n)), axis=1).astype(np.int32)
    rows = block_rows_of(rng, 45, kind)
    want = comparison_matrix(ranks)[rows]
    for dtype in (bool, np.float32, np.float64):
        # a caller's buffer is often a view of a wider one
        buf = np.ones((num_pairs(n), len(rows) + 3), dtype=dtype)
        out = buf[:, : len(rows)]
        got = comparison_block(ranks, rows, out)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(out.T, want) and (buf[:, len(rows) :] == 1).all()


@pytest.mark.parametrize("n", [1, 2, 7, 20, 50])
@pytest.mark.parametrize("kind", ["sorted", "unsorted", "repeated", "empty"])
def test_comparison_counts_sum_the_matrix_rows_in_blocks(rng, monkeypatch, n, kind):
    ranks = np.argsort(rng.random((45, n)), axis=1).astype(np.int32)
    rows = block_rows_of(rng, 45, kind)
    want = comparison_matrix(ranks)[rows].sum(axis=0, dtype=np.int64)
    for block in (1, 4, 1000):
        set_comparison_rows(monkeypatch, n, block)
        got = comparison_counts(ranks, rows)
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_comparison_rows_hold_a_fixed_number_of_entries():
    import coastrank.perms as perms_mod

    entries = perms_mod.COMPARISON_ENTRIES
    assert comparison_rows(50) == entries // 1225 and comparison_rows(20) == entries // 190
    # no pairs: one row counts as one entry; the rule never reaches 2**24 rows,
    # so a float32 product over one block stays exact
    assert comparison_rows(1) == comparison_rows(2) == entries < 2**24


@pytest.mark.parametrize("n", [3, 20])
def test_comparison_counts_hold_full_byte_lanes(rng, n):
    """Blocks of thousands of rows, and columns every row sets: each byte of a
    word sum reaches 255 and none carries."""
    ranks = np.argsort(rng.random((6000, n)), axis=1).astype(np.int32)
    ranks[:4100] = ranks[0]  # the same ranking, so its 'before' columns are all set
    for rows in (np.arange(6000), np.arange(4100), rng.permutation(6000)[:5003]):
        want = comparison_matrix(ranks)[rows].sum(axis=0, dtype=np.int64)
        assert np.array_equal(comparison_counts(ranks, rows), want)
