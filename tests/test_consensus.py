"""Transitivity, medians (three routes), dispersion measures."""

import numpy as np
import pytest

from coastrank.consensus import (
    MedianResult,
    SstKind,
    _climb,
    _climb_rows,
    _forced_endpoint,
    copeland_median,
    depth_climb_median,
    dispersion_v,
    dispersion_v_prime,
    exact_kemeny,
    make_aggregator,
    sst_status,
)
from coastrank.errors import (
    EnumerationLimitError,
    RejectedInputError,
    TransitivityError,
)
from coastrank.perms import (
    DiscreteRankingDistribution,
    PairwiseMatrix,
    Permutation,
    RankingSample,
    comparison_matrix,
    num_pairs,
    pair_list,
    ranking_risk,
)

from conftest import (
    random_marginals,
    random_permutation,
    random_rational_distribution,
    random_sample,
    reversal,
)
from oracles import (
    brute_kemeny,
    brute_risk,
    enumerate_permutations,
    loop_climb,
    loop_depth_climb_median,
    loop_dispersion_v,
    loop_dispersion_v_prime,
    naive_kendall,
    scan_climb,
    streamed_kemeny,
)


def matrix_from_upper(entries: dict, n: int) -> PairwiseMatrix:
    p = np.full((n, n), 0.5)
    for (i, j), v in entries.items():
        p[i, j] = v
        p[j, i] = 1.0 - v
    return PairwiseMatrix(n, p)


def strict_sst_sample(rng, n, tries=500):
    """A random sample whose empirical marginals are strictly SST (odd size)."""
    for _ in range(tries):
        size = int(rng.integers(7, 31)) | 1  # odd: no exact 1/2 ties possible
        center = random_permutation(rng, n)
        # bias draws toward the center by repeated random adjacent swaps
        perms = []
        for _ in range(size):
            order = list(center.ordering())
            for _ in range(int(rng.integers(0, n))):
                r = int(rng.integers(n - 1))
                order[r], order[r + 1] = order[r + 1], order[r]
            perms.append(Permutation.from_ordering(order))
        s = RankingSample(tuple(perms))
        if sst_status(PairwiseMatrix.from_comparisons(s.n, comparison_matrix(s.ranks_matrix))).kind is SstKind.STRICT:
            return s
    raise AssertionError("could not generate a strictly SST sample")


# --- sst_status -------------------------------------------------------------


def test_sst_strict():
    m = matrix_from_upper({(0, 1): 0.9, (0, 2): 0.8, (1, 2): 0.7}, 3)
    st = sst_status(m)
    assert st.kind is SstKind.STRICT
    assert st.witness is None and st.tied_pair is None
    assert st.margin == pytest.approx(0.2)


def test_sst_cycle_witness():
    m = matrix_from_upper({(0, 1): 0.6, (1, 2): 0.6, (0, 2): 0.4}, 3)
    st = sst_status(m)
    assert st.kind is SstKind.NOT_TRANSITIVE
    i, j, k = st.witness
    p = m.p
    assert p[i, j] >= 0.5 and p[j, k] >= 0.5 and p[i, k] < 0.5


def test_sst_weak_tie():
    m = matrix_from_upper({(0, 1): 0.5, (0, 2): 0.8, (1, 2): 0.7}, 3)
    st = sst_status(m)
    assert st.kind is SstKind.WEAK
    assert st.tied_pair in ((0, 1), (1, 0))
    assert st.witness is None


# --- copeland ---------------------------------------------------------------


def test_copeland_identity_and_reverse():
    m = matrix_from_upper({(0, 1): 0.9, (0, 2): 0.8, (1, 2): 0.7}, 3)
    assert copeland_median(m) == Permutation.identity(3)
    m2 = matrix_from_upper({(0, 1): 0.2, (0, 2): 0.2, (1, 2): 0.2}, 3)
    assert copeland_median(m2) == reversal(3)


def test_copeland_rejects_nonstrict():
    tie = matrix_from_upper({(0, 1): 0.5, (0, 2): 0.8, (1, 2): 0.7}, 3)
    with pytest.raises(TransitivityError) as ei:
        copeland_median(tie)
    assert ei.value.tied_pair is not None
    cyc = matrix_from_upper({(0, 1): 0.6, (1, 2): 0.6, (0, 2): 0.4}, 3)
    with pytest.raises(TransitivityError) as ei2:
        copeland_median(cyc)
    assert ei2.value.witness is not None


# --- exact kemeny -----------------------------------------------------------


def test_exact_kemeny_uniform():
    d = DiscreteRankingDistribution.empirical(RankingSample(tuple(enumerate_permutations(3))))
    res = exact_kemeny(d)
    assert len(res.medians) == 6
    assert res.risk == pytest.approx(1.5)


def test_exact_kemeny_two_point():
    d = DiscreteRankingDistribution.from_pairs(
        [(Permutation.identity(3), 0.5), (reversal(3), 0.5)]
    )
    res = exact_kemeny(d)
    assert len(res.medians) == 6  # every ranking is median at risk 3/2
    assert res.risk == pytest.approx(1.5)


def test_exact_kemeny_matches_brute(rng):
    for _ in range(25):
        n = int(rng.integers(2, 6))
        d = random_rational_distribution(rng, n)
        res = exact_kemeny(d)
        medians, risk = brute_kemeny(d)
        assert res.risk == pytest.approx(risk, abs=1e-9)
        assert set(res.medians) == set(medians)
        # all reported medians achieve the same definitional risk
        for med in res.medians:
            assert ranking_risk(d, med) == pytest.approx(res.risk, abs=1e-9)
        # lexicographically smallest first
        assert list(res.medians) == sorted(res.medians, key=lambda p: p.ranks)


def test_exact_kemeny_limit():
    d = DiscreteRankingDistribution.from_pairs([(Permutation.identity(10), 1.0)])
    with pytest.raises(EnumerationLimitError):
        exact_kemeny(d)


# --- copeland vs exact on strict SST samples ---------------------------------


def test_copeland_equals_kemeny_on_strict_sst(rng):
    for _ in range(20):
        n = int(rng.integers(3, 6))
        s = strict_sst_sample(rng, n)
        d = DiscreteRankingDistribution.empirical(s)
        m = PairwiseMatrix.from_comparisons(s.n, comparison_matrix(s.ranks_matrix))
        cope = copeland_median(m)
        res = exact_kemeny(d)
        assert cope in res.medians
        assert res.risk == pytest.approx(dispersion_v(m), abs=1e-9)


# --- depth climb ------------------------------------------------------------


def test_depth_climb_reaches_exact_median_on_sst(rng):
    for _ in range(12):
        n = int(rng.integers(3, 7))
        s = strict_sst_sample(rng, n)
        med = exact_kemeny(DiscreteRankingDistribution.empirical(s)).median
        for seed in range(4):
            m = PairwiseMatrix.from_comparisons(s.n, comparison_matrix(s.ranks_matrix))
            got = depth_climb_median(m, restarts=1, rng=np.random.default_rng(seed))
            assert got.median == med


def test_depth_climb_improves_over_start(rng):
    s = random_sample(rng, 6, 40)
    d = DiscreteRankingDistribution.empirical(s)
    m = PairwiseMatrix.from_comparisons(s.n, comparison_matrix(s.ranks_matrix))
    res = depth_climb_median(m, restarts=8, rng=np.random.default_rng(1))
    assert res.risk == pytest.approx(ranking_risk(d, res.median), abs=1e-9)
    # local optimality: no adjacent swap improves
    order = list(res.median.ordering())
    for r in range(5):
        w, l = order[r], order[r + 1]
        assert 2 * m.p[w, l] - 1 >= -1e-12
    with pytest.raises(RejectedInputError):
        depth_climb_median(m, restarts=0)


def test_climb_matches_loop_reference(rng):
    # same swaps as a plain loop, ties in the risk change included
    for _ in range(300):
        n = int(rng.integers(1, 25))
        m = random_marginals(rng, n, int(rng.integers(1, 12)))
        start = random_permutation(rng, n)
        assert _climb(_climb_rows(m), start) == loop_climb(m, start)


@pytest.mark.parametrize("n", [1, 2, 8, 20, 50])
@pytest.mark.parametrize("size", [1, 4, 200])
def test_climb_matches_loop_reference_on_quantized_marginals(rng, n, size):
    # few rows give marginals on a coarse grid, so many swaps tie
    m = random_marginals(rng, n, size)
    for _ in range(5):
        start = random_permutation(rng, n)
        assert _climb(_climb_rows(m), start) == loop_climb(m, start)


def test_heap_climb_takes_the_swaps_of_the_scan_climb(rng):
    # marginals of 1 to 6 rows sit on a coarse grid, with many swaps tied and many p = 1/2
    halves = 0
    for _ in range(3000):
        n = int(rng.integers(2, 30))
        m = random_marginals(rng, n, int(rng.integers(1, 7)))
        halves += int(np.any(m.p[np.triu_indices(n, 1)] == 0.5))
        start = random_permutation(rng, n)
        assert _climb(_climb_rows(m), start) == scan_climb(m, start)
    assert halves > 1000


@pytest.mark.parametrize("n", [2, 3, 8, 29])
def test_heap_climb_matches_the_scan_climb_on_half_marginals(rng, n):
    # every pair at p = 1/2 but a few: no swap or only a few improve
    for k in range(20):
        entries = {}
        for _ in range(k % 4):
            i, j = sorted(int(v) for v in rng.choice(n, 2, replace=False))
            entries[(i, j)] = float(rng.choice([0.25, 0.5, 0.75]))
        m = matrix_from_upper(entries, n)
        start = random_permutation(rng, n)
        assert _climb(_climb_rows(m), start) == scan_climb(m, start) == loop_climb(m, start)


def linear_order_marginals(rng, n, tie=None):
    """Marginals whose majority is a random linear order, with margins in (0, 1/2].

    ``tie`` replaces the margin of one adjacent pair of that order, so the
    pair's upper entry becomes 1/2 + tie.
    """
    order = rng.permutation(n)
    entries = {}
    for k in range(n):
        for j in range(k + 1, n):
            entries[(int(order[k]), int(order[j]))] = 1.0 - 0.5 * float(rng.random())
    if tie is not None:
        k = int(rng.integers(n - 1))
        entries[(int(order[k]), int(order[k + 1]))] = 0.5 + tie
    return matrix_from_upper(entries, n)


def climb_cases(rng, n):
    """Marginals from linear orders, near-consensus samples and uniform samples."""
    cases = [linear_order_marginals(rng, n) for _ in range(3)]
    if n > 1:  # a margin just outside the climb's tolerance still forces the order
        cases.append(linear_order_marginals(rng, n, tie=1e-15))
    cases += [random_marginals(rng, n, size) for size in (1, 3, 4, 200)]
    if 2 < n <= 20:
        s = strict_sst_sample(rng, n)
        cases.append(PairwiseMatrix.from_comparisons(s.n, comparison_matrix(s.ranks_matrix)))
    return cases


@pytest.mark.parametrize("n", [1, 2, 8, 20, 50])
def test_forced_endpoint_is_where_every_climb_ends(rng, n):
    fired = 0
    for m in climb_cases(rng, n):
        forced = _forced_endpoint(m)
        if forced is None:
            continue
        fired += 1
        for _ in range(4):
            assert loop_climb(m, random_permutation(rng, n)) == forced
        seed = int(rng.integers(1 << 30))
        got = depth_climb_median(m, restarts=3, rng=np.random.default_rng(seed))
        want = loop_depth_climb_median(m, 3, np.random.default_rng(seed))
        assert (got.median, got.risk) == want
    assert fired >= 3  # every linear-order case fires


@pytest.mark.parametrize("n", [2, 8, 20, 50])
@pytest.mark.parametrize("tie", [0.0, 2.0**-52, 4e-16, -4e-16])
def test_forced_endpoint_refuses_ties_within_the_climb_tolerance(rng, n, tie):
    # either order of the tied pair may stay, so the endpoint depends on the start
    m = linear_order_marginals(rng, n, tie=tie)
    assert _forced_endpoint(m) is None
    seed = int(rng.integers(1 << 30))
    got = depth_climb_median(m, restarts=4, rng=np.random.default_rng(seed))
    want = loop_depth_climb_median(m, 4, np.random.default_rng(seed))
    assert (got.median, got.risk) == want


def test_forced_endpoint_refuses_cycles():
    # every pair allows one order, but the wins are 1, 1, 1
    m = matrix_from_upper({(0, 1): 0.7, (1, 2): 0.7, (0, 2): 0.3}, 3)
    assert _forced_endpoint(m) is None
    entries = {(0, 1): 0.7, (1, 2): 0.7, (0, 2): 0.6, (0, 3): 0.1, (1, 3): 0.2, (2, 3): 0.2}
    m = matrix_from_upper(entries, 4)
    assert _forced_endpoint(m) == Permutation.from_ordering([3, 0, 1, 2])


@pytest.mark.parametrize("n", [1, 8, 50])
def test_depth_climb_draws_every_start_from_the_generator(rng, n):
    cases = [linear_order_marginals(rng, n), random_marginals(rng, n, 3)]
    for m in cases:
        used, drawn = np.random.default_rng(11), np.random.default_rng(11)
        depth_climb_median(m, restarts=5, rng=used)
        for _ in range(5):
            drawn.permutation(n)
        assert used.bit_generator.state == drawn.bit_generator.state


def test_depth_climb_deterministic(rng):
    s = random_sample(rng, 5, 30)
    m = PairwiseMatrix.from_comparisons(s.n, comparison_matrix(s.ranks_matrix))
    a = depth_climb_median(m, restarts=8, rng=np.random.default_rng(3)).median
    b = depth_climb_median(m, restarts=8, rng=np.random.default_rng(3)).median
    assert a == b


# --- dispersions ------------------------------------------------------------


def test_dispersion_uniform():
    u = PairwiseMatrix(3, np.full((3, 3), 0.5))
    assert dispersion_v(u) == pytest.approx(1.5)
    assert dispersion_v_prime(u) == pytest.approx(0.75)


def test_dispersion_cycle_bounds_kemeny():
    # non-SST example: the min-sum 1.2 is a strict lower bound here, because a
    # majority cycle forces every ranking to pay the majority side of >=1 pair
    m = matrix_from_upper({(0, 1): 0.6, (1, 2): 0.6, (0, 2): 0.4}, 3)
    assert dispersion_v(m) == pytest.approx(1.2)
    dist = DiscreteRankingDistribution.from_pairs(
        [
            (Permutation.from_ordering((0, 1, 2)), 0.4),
            (Permutation.from_ordering((1, 2, 0)), 0.2),
            (Permutation.from_ordering((2, 0, 1)), 0.2),
            (Permutation.from_ordering((2, 1, 0)), 0.2),
        ]
    )
    got = dist.marginals()
    assert np.allclose(got.p, m.p)
    # one disagreement costs 0.6 in place of 0.4
    assert exact_kemeny(dist).risk == pytest.approx(1.4, abs=1e-12)


def test_dispersions_equal_the_pair_loops_bit_for_bit(rng):
    for n in range(1, 10):
        for _ in range(20):
            pairs = pair_list(n)
            random = dict(zip(pairs, rng.random(len(pairs))))
            # ties at 1/2, exact 0 and 1, and sample marginals
            tied = dict(zip(pairs, rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=len(pairs))))
            for m in (matrix_from_upper(random, n), matrix_from_upper(tied, n),
                      random_marginals(rng, n, int(rng.integers(1, 30)))):
                for fast, loop in ((dispersion_v, loop_dispersion_v),
                                   (dispersion_v_prime, loop_dispersion_v_prime)):
                    got, want = fast(m), loop(m)
                    assert type(got) is float
                    assert got.hex() == want.hex()


def test_sandwich_v_prime_v_2v_prime(rng):
    # V' <= min-sum <= V <= 2 V' for exact distributions
    for _ in range(200):
        n = int(rng.integers(2, 6))
        d = random_rational_distribution(rng, n)
        m = d.marginals()
        v = exact_kemeny(d).risk
        vp = dispersion_v_prime(m)
        assert vp - 1e-9 <= dispersion_v(m) <= v + 1e-9
        assert v <= 2 * vp + 1e-9


def test_v_prime_is_half_expected_distance(rng):
    for _ in range(30):
        n = int(rng.integers(2, 6))
        d = random_rational_distribution(rng, n)
        expected = sum(
            wa * wb * naive_kendall(a, b)
            for a, wa in zip(d.support, d.weights)
            for b, wb in zip(d.support, d.weights)
        )
        assert dispersion_v_prime(d.marginals()) == pytest.approx(expected / 2, abs=1e-9)


def test_low_noise_bound(rng):
    for _ in range(50):
        n = int(rng.integers(2, 6))
        d = random_rational_distribution(rng, n)
        m = d.marginals()
        h = m.margin()
        assert dispersion_v(m) <= num_pairs(n) * (0.5 - h) + 1e-12


# --- aggregators ------------------------------------------------------------


def test_aggregator_auto_exact_small_n(rng):
    s = random_sample(rng, 5, 21)
    agg = make_aggregator("auto", seed=1)
    med = agg(PairwiseMatrix.from_comparisons(s.n, comparison_matrix(s.ranks_matrix)), node_id=0)
    assert med == exact_kemeny(DiscreteRankingDistribution.empirical(s)).median


def test_aggregator_copeland_fallback(rng):
    # a cyclic sample: copeland falls back to depth climbing instead of failing
    perms = [
        Permutation.from_ordering((0, 1, 2)),
        Permutation.from_ordering((1, 2, 0)),
        Permutation.from_ordering((2, 0, 1)),
    ]
    s = RankingSample(tuple(perms))
    agg = make_aggregator("copeland", seed=0)
    med = agg(PairwiseMatrix.from_comparisons(s.n, comparison_matrix(s.ranks_matrix)), node_id=3)
    assert isinstance(med, Permutation)


@pytest.mark.parametrize("kind", ["auto", "copeland"])
def test_aggregator_checks_sst_once_per_node(monkeypatch, rng, kind):
    import coastrank.consensus as consensus_mod

    s = strict_sst_sample(rng, 9)  # n above EXACT_N_LIMIT, so auto takes the Copeland route
    m = PairwiseMatrix.from_comparisons(s.n, comparison_matrix(s.ranks_matrix))
    want = copeland_median(m)
    calls = []
    check = consensus_mod.sst_status

    def counting(marginals):
        calls.append(marginals)
        return check(marginals)

    monkeypatch.setattr(consensus_mod, "sst_status", counting)
    assert make_aggregator(kind, seed=0)(m, node_id=2) == want
    assert calls == [m]


def test_aggregator_unknown_kind():
    with pytest.raises(RejectedInputError):
        make_aggregator("magic")


@pytest.mark.parametrize("kind", ["auto", "depth-climb"])
def test_aggregator_rejects_a_negative_seed(kind):
    # refused before any draw, so the outcome does not depend on whether a leaf climbs
    with pytest.raises(RejectedInputError, match="seed must be a non-negative integer"):
        make_aggregator(kind, seed=-1)


def test_exact_kemeny_cached_table_matches_streamed_enumeration(rng):
    # the cached S_n table gives the same medians, ties and risk bits as
    # scoring freshly enumerated chunks; n alternates so the cache refills
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 3, 8):
        dists = [random_rational_distribution(rng, n, max_support=30)]
        if n >= 2:
            # a two-point distribution has many tied medians
            dists.append(DiscreteRankingDistribution.from_pairs(
                [(Permutation.identity(n), 0.5), (reversal(n), 0.5)]
            ))
        for d in dists:
            medians, risk = streamed_kemeny(d)
            assert exact_kemeny(d) == MedianResult(medians=medians, risk=risk, method="exact")
