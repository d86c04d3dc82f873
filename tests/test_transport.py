"""Exact transport solver, distortion bounds, and L2 distance."""

import csv
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from coastrank.cells import Cell
from coastrank.consensus import exact_kemeny
from coastrank.errors import (
    CapacityError,
    DimensionMismatchError,
    PartitionIntegrityError,
    RejectedInputError,
)
from coastrank.perms import (
    DiscreteRankingDistribution,
    Permutation,
    enumerate_permutations,
    hamming_cross,
    kendall_tau,
)
from coastrank.transport import (
    TransportPlan,
    distortion_report,
    l2_distance,
    wasserstein,
)

from conftest import random_permutation, random_rational_distribution
from oracles import brute_wasserstein


def tiny_distribution(rng, n, max_support):
    """Rational-weight distribution with a support small enough to brute-force."""
    return random_rational_distribution(rng, n, max_support=max_support, denom_cap=12)


def point(perm):
    return DiscreteRankingDistribution.from_pairs([(perm, 1.0)])


def chain_cell(perm):
    """The cell whose constraints pin every pair the way perm orders it."""
    pairs = set()
    for i in range(perm.n):
        for j in range(perm.n):
            if i != j and perm.ranks[i] < perm.ranks[j]:
                pairs.add((i, j))
    return Cell(perm.n, frozenset(pairs))


# --- wasserstein ---------------------------------------------------------------


def test_point_mass_distance(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a, b = random_permutation(rng, n), random_permutation(rng, n)
        w, plan = wasserstein(point(a), point(b))
        assert w == kendall_tau(a, b)
        assert plan.flow.shape == (1, 1) and plan.flow[0, 0] == 1.0


def test_self_distance_zero(rng):
    for _ in range(10):
        p = tiny_distribution(rng, 4, 6)
        assert wasserstein(p, p)[0] == 0.0


def test_distinct_distributions_strictly_positive(rng):
    for _ in range(10):
        p = tiny_distribution(rng, 3, 4)
        q = tiny_distribution(rng, 3, 4)
        same = p.support == q.support and np.allclose(p.weights, q.weights, atol=1e-12)
        w, _ = wasserstein(p, q)
        if same:
            assert w == 0.0
        else:
            assert w > 0.0


def test_half_half_vs_point():
    p = DiscreteRankingDistribution.from_pairs(
        [(Permutation.identity(3), 0.5), (Permutation.reverse(3), 0.5)]
    )
    w, plan = wasserstein(p, point(Permutation.identity(3)))
    # the only coupling sends both halves to the identity: 0.5*0 + 0.5*3
    assert w == pytest.approx(1.5, abs=1e-12)
    plan.verify(p, point(Permutation.identity(3)))


def test_matches_vertex_enumeration_oracle(rng):
    for _ in range(60):
        n = int(rng.integers(2, 5))
        p = tiny_distribution(rng, n, 4)
        q = tiny_distribution(rng, n, 4)
        w, plan = wasserstein(p, q)
        plan.verify(p, q)
        assert w == pytest.approx(brute_wasserstein(p, q), abs=1e-9)


def test_matches_linear_programming(rng):
    for _ in range(25):
        n = int(rng.integers(3, 6))
        p = random_rational_distribution(rng, n, max_support=10)
        q = random_rational_distribution(rng, n, max_support=10)
        w, _ = wasserstein(p, q)
        cost = hamming_cross(p.support_comparisons, q.support_comparisons)
        m1, m2 = p.size, q.size
        a_eq = np.zeros((m1 + m2, m1 * m2))
        for i in range(m1):
            a_eq[i, i * m2 : (i + 1) * m2] = 1.0
        for j in range(m2):
            a_eq[m1 + j, j::m2] = 1.0
        b_eq = np.concatenate([p.weights, q.weights])
        res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, method="highs")
        assert res.status == 0
        assert w == pytest.approx(res.fun, abs=1e-7)


def test_symmetry(rng):
    for _ in range(15):
        p = tiny_distribution(rng, 4, 5)
        q = tiny_distribution(rng, 4, 5)
        assert wasserstein(p, q)[0] == pytest.approx(wasserstein(q, p)[0], abs=1e-12)


def test_triangle_inequality(rng):
    for _ in range(25):
        n = int(rng.integers(2, 5))
        p, q, r = (tiny_distribution(rng, n, 5) for _ in range(3))
        wpq = wasserstein(p, q)[0]
        wqr = wasserstein(q, r)[0]
        wpr = wasserstein(p, r)[0]
        assert wpr <= wpq + wqr + 1e-9


def test_plan_invariants_and_csv(rng, tmp_path):
    p = random_rational_distribution(rng, 4, max_support=8)
    q = random_rational_distribution(rng, 4, max_support=8)
    w, plan = wasserstein(p, q)
    assert np.allclose(plan.row_sums(), p.weights, atol=1e-9)
    assert np.allclose(plan.col_sums(), q.weights, atol=1e-9)
    d = hamming_cross(p.support_comparisons, q.support_comparisons)
    assert float((plan.flow * d).sum()) == pytest.approx(w, abs=1e-12)

    path = tmp_path / "plan.csv"
    plan.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == int((plan.flow > 0).sum())
    total = sum(float(r["mass"]) * int(r["unit_cost"]) for r in rows)
    assert total == pytest.approx(w, abs=1e-9)
    for r in rows:
        a, b = int(r["source"]), int(r["target"])
        assert int(r["unit_cost"]) == kendall_tau(p.support[a], q.support[b])


def test_input_validation(rng):
    p3 = tiny_distribution(rng, 3, 3)
    p4 = tiny_distribution(rng, 4, 3)
    with pytest.raises(DimensionMismatchError):
        wasserstein(p3, p4)
    big = random_rational_distribution(rng, 4, max_support=10)
    with pytest.raises(CapacityError):
        wasserstein(big, big, solver_limit=big.size - 1)

    class Lopsided(DiscreteRankingDistribution):
        def __post_init__(self):
            object.__setattr__(self, "weights", np.asarray(self.weights, float))

    q = Lopsided(3, (Permutation.identity(3),), np.array([0.7]))
    with pytest.raises(RejectedInputError):
        wasserstein(p3, q)

    with pytest.raises(RejectedInputError):
        TransportPlan(
            rows=p3.support,
            cols=p3.support,
            flow=np.full((p3.size, p3.size), -0.5),
            cost=0.0,
        )


# --- l2 distance -----------------------------------------------------------------


def test_l2_examples(rng):
    idn = Permutation.identity(3)
    other = Permutation.reverse(3)
    uniform = DiscreteRankingDistribution.from_pairs(
        [(p, 1 / 6) for p in enumerate_permutations(3)]
    )
    assert l2_distance(point(idn), point(idn)) == 0.0
    assert l2_distance(point(idn), point(other)) == pytest.approx(math.sqrt(2))
    assert l2_distance(uniform, point(idn)) == pytest.approx(math.sqrt(30) / 6)
    p = tiny_distribution(rng, 4, 6)
    q = tiny_distribution(rng, 4, 6)
    assert l2_distance(p, q) == pytest.approx(l2_distance(q, p), abs=1e-15)
    with pytest.raises(DimensionMismatchError):
        l2_distance(p, point(Permutation.identity(3)))


def test_l2_against_dense_vectors(rng):
    perms = list(enumerate_permutations(4))
    index = {p.ranks: k for k, p in enumerate(perms)}
    for _ in range(10):
        p = tiny_distribution(rng, 4, 8)
        q = tiny_distribution(rng, 4, 8)
        vec = np.zeros(len(perms))
        for perm, w in zip(p.support, p.weights):
            vec[index[perm.ranks]] += w
        for perm, w in zip(q.support, q.weights):
            vec[index[perm.ranks]] -= w
        assert l2_distance(p, q) == pytest.approx(float(np.linalg.norm(vec)), abs=1e-12)


# --- distortion report ------------------------------------------------------------


def conditional_medians(dist, cells):
    meds = []
    for cell in cells:
        mask = np.array([cell.contains(p) for p in dist.support])
        _, cond = dist.condition(mask)
        meds.append(exact_kemeny(cond).median)
    return meds


def test_trivial_partition_equality(rng):
    # one cell holding everything: the transport cost to the single median
    # equals the optimal risk exactly
    for _ in range(15):
        n = int(rng.integers(3, 5))
        dist = random_rational_distribution(rng, n, max_support=8)
        med = exact_kemeny(dist).median
        rep = distortion_report(dist, [Cell.root(n)], [med])
        assert rep.w == pytest.approx(exact_kemeny(dist).risk, abs=1e-9)
        assert rep.w == pytest.approx(rep.e, abs=1e-9)
        assert rep.w_le_e and rep.e_le_two_e_prime


def test_finest_partition_zero(rng):
    for _ in range(10):
        n = int(rng.integers(3, 5))
        dist = random_rational_distribution(rng, n, max_support=6)
        cells = [chain_cell(p) for p in dist.support]
        rep = distortion_report(dist, cells, list(dist.support))
        assert rep.w == 0.0
        assert rep.e == pytest.approx(0.0, abs=1e-12)
        assert rep.e_prime == pytest.approx(0.0, abs=1e-12)
        assert rep.e_dprime == pytest.approx(0.0, abs=1e-12)


def test_distortion_bound_random_partitions(rng):
    # random 2-cell partitions with exact conditional medians: the sandwich
    # W <= E <= 2 E' holds on every instance (and is sometimes strict)
    strict = 0
    for _ in range(100):
        n = int(rng.integers(3, 6))
        dist = random_rational_distribution(rng, n, max_support=8)
        i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        cells = Cell.root(n).split((i, j))
        mask0 = np.array([cells[0].contains(p) for p in dist.support])
        if mask0.all() or not mask0.any():
            continue
        meds = conditional_medians(dist, cells)
        rep = distortion_report(dist, cells, meds)
        assert rep.w_le_e is True
        assert rep.e_le_two_e_prime is True
        if rep.w < rep.e - 1e-9:
            strict += 1
    assert strict > 0  # looseness genuinely occurs


def test_variability_transfer(rng):
    # |V_P - V_Q| <= W(P, Q) with V the optimal ranking risk
    for _ in range(25):
        n = int(rng.integers(3, 6))
        p = random_rational_distribution(rng, n, max_support=6)
        q = random_rational_distribution(rng, n, max_support=6)
        vp = exact_kemeny(p).risk
        vq = exact_kemeny(q).risk
        assert abs(vp - vq) <= wasserstein(p, q)[0] + 1e-9


def test_cyclic_conditional_breaks_min_sum_bound():
    # majority cycle: optimal risk 1.4 exceeds the min-sum dispersion 1.2,
    # so the e <= e_dprime flag reports False rather than being asserted
    dist = DiscreteRankingDistribution.from_pairs(
        [
            (Permutation.from_ordering((0, 1, 2)), 0.4),
            (Permutation.from_ordering((1, 2, 0)), 0.2),
            (Permutation.from_ordering((2, 0, 1)), 0.2),
            (Permutation.from_ordering((2, 1, 0)), 0.2),
        ]
    )
    med = exact_kemeny(dist).median
    rep = distortion_report(dist, [Cell.root(3)], [med])
    assert rep.e == pytest.approx(1.4, abs=1e-12)
    assert rep.e_dprime == pytest.approx(1.2, abs=1e-12)
    assert rep.e_le_e_dprime is False
    assert rep.w_le_e is True and rep.e_le_two_e_prime is True


def test_sst_conditionals_meet_min_sum_bound(rng):
    # when every cell conditional is transitive the min-sum form is exact,
    # so e == e_dprime and the flag holds
    from conftest import random_sample
    from coastrank.consensus import sst_status, SstKind

    hits = 0
    for _ in range(200):
        s = random_sample(rng, 4, 30)
        dist = DiscreteRankingDistribution.empirical(s)
        if sst_status(dist.marginals()).kind is not SstKind.STRICT:
            continue
        rep = distortion_report(dist, [Cell.root(4)], [exact_kemeny(dist).median])
        assert rep.e_le_e_dprime is True
        assert rep.e == pytest.approx(rep.e_dprime, abs=1e-9)
        hits += 1
        if hits >= 10:
            break
    assert hits >= 3


def test_report_degrades_beyond_enumeration_limit(rng):
    perms = tuple(random_permutation(rng, 10) for _ in range(4))
    dist = DiscreteRankingDistribution.from_pairs([(p, 0.25) for p in perms])
    rep = distortion_report(dist, [Cell.root(10)], [perms[0]])
    assert rep.e is None
    assert rep.w_le_e is None and rep.e_le_two_e_prime is None
    assert rep.e_prime > 0 and rep.e_dprime > 0
    assert rep.w >= 0


def test_report_partition_validation(rng):
    dist = random_rational_distribution(rng, 3, max_support=5)
    med = dist.support[0]
    with pytest.raises(PartitionIntegrityError):
        distortion_report(dist, [Cell.root(3), Cell.root(3)], [med, med])
    c0, c1 = Cell.root(3).split((0, 1))
    only_half = [c0]
    if all(c0.contains(p) for p in dist.support):
        only_half = [c1]
    with pytest.raises(PartitionIntegrityError):
        distortion_report(dist, only_half, [med])
    with pytest.raises(RejectedInputError):
        distortion_report(dist, [Cell.root(3)], [med, med])
    with pytest.raises(DimensionMismatchError):
        distortion_report(dist, [Cell.root(3)], [Permutation.identity(4)])


def test_report_empty_cells_carry_no_mass(rng):
    # a partition may include cells that miss the support entirely; they are
    # skipped and their medians contribute no atom
    dist = DiscreteRankingDistribution.from_pairs([(Permutation.identity(3), 1.0)])
    c0, c1 = Cell.root(3).split((0, 1))  # identity lies in c0 (0 before 1)
    rep = distortion_report(dist, [c0, c1], [Permutation.identity(3), Permutation.reverse(3)])
    assert rep.w == 0.0 and rep.e == 0.0


def test_distortion_report_blank_w_beyond_solver_limit(rng):
    dist = random_rational_distribution(rng, 4, max_support=10)
    while dist.size <= 3:
        dist = random_rational_distribution(rng, 4, max_support=10)
    cells = Cell.root(4).split((0, 1))
    meds = conditional_medians(dist, cells)
    full = distortion_report(dist, cells, meds)
    capped = distortion_report(dist, cells, meds, solver_limit=3)
    assert capped.w is None and capped.w_le_e is None
    assert full.w is not None and full.w_le_e is True
    assert capped.e == full.e
    assert capped.e_prime == full.e_prime and capped.e_dprime == full.e_dprime
    assert capped.e_le_two_e_prime == full.e_le_two_e_prime
    assert capped.e_le_e_dprime == full.e_le_e_dprime
