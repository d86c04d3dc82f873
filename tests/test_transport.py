"""Exact transport solver, distortion bounds, and L2 distance."""

import csv
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment, linprog

from coastrank.cells import Cell
from coastrank.consensus import dispersion_v, dispersion_v_prime, exact_kemeny
from coastrank.errors import (
    CapacityError,
    DimensionMismatchError,
    PartitionIntegrityError,
    RejectedInputError,
)
from coastrank.perms import DiscreteRankingDistribution, Permutation, hamming_cross, kendall_tau
from coastrank.transport import (
    DistortionReport,
    TransportPlan,
    _integer_weights,
    _solve_transport,
    distortion_report,
    distortion_reports,
    wasserstein,
)

from conftest import random_permutation, random_rational_distribution, random_sample, reversal
from oracles import (
    admissible_pairs,
    bland_transport,
    brute_wasserstein,
    condition,
    crd_distribution,
    enumerate_permutations,
    l2_distance,
    plan_to_csv,
    subtree_transport,
    verify_plan,
)


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
        [(Permutation.identity(3), 0.5), (reversal(3), 0.5)]
    )
    w, plan = wasserstein(p, point(Permutation.identity(3)))
    # the only coupling sends both halves to the identity: 0.5*0 + 0.5*3
    assert w == pytest.approx(1.5, abs=1e-12)
    verify_plan(plan, p, point(Permutation.identity(3)))


def test_matches_vertex_enumeration_oracle(rng):
    for _ in range(60):
        n = int(rng.integers(2, 5))
        p = tiny_distribution(rng, n, 4)
        q = tiny_distribution(rng, n, 4)
        w, plan = wasserstein(p, q)
        verify_plan(plan, p, q)
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
    assert np.allclose(plan.flow.sum(axis=1), p.weights, atol=1e-9)
    assert np.allclose(plan.flow.sum(axis=0), q.weights, atol=1e-9)
    d = hamming_cross(p.support_comparisons, q.support_comparisons)
    assert float((plan.flow * d).sum()) == pytest.approx(w, abs=1e-12)

    path = tmp_path / "plan.csv"
    plan_to_csv(plan, path)
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
        def _check(self, support):
            object.__setattr__(self, "weights", np.asarray(self.weights, float))

    q = Lopsided(3, (Permutation.identity(3),), np.array([0.7]))
    with pytest.raises(RejectedInputError):
        wasserstein(p3, q)

    with pytest.raises(RejectedInputError):
        TransportPlan(
            rows=p3.ranks,
            cols=p3.ranks,
            flow=np.full((p3.size, p3.size), -0.5),
            cost=0.0,
        )


# --- l2 distance -----------------------------------------------------------------


def test_l2_examples(rng):
    idn = Permutation.identity(3)
    other = reversal(3)
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
        _, cond = condition(dist, mask)
        meds.append(exact_kemeny(cond).median)
    return meds


def conditional_report(dist, cells, medians):
    """The distortion report rebuilt from each cell's conditional distribution."""
    e = e_prime = e_dprime = 0.0
    atoms = []
    for cell, med in zip(cells, medians):
        mass, cond = condition(dist, np.array([cell.contains(p) for p in dist.support]))
        if cond is None:
            continue
        atoms.append((med, mass))
        e_prime += mass * dispersion_v_prime(cond.marginals())
        e_dprime += mass * dispersion_v(cond.marginals())
        e += mass * exact_kemeny(cond).risk
    w, plan = wasserstein(dist, DiscreteRankingDistribution.from_pairs(atoms))
    return DistortionReport(
        w=w, e=e, e_prime=e_prime, e_dprime=e_dprime, w_le_e=w <= e + 1e-9,
        e_le_two_e_prime=e <= 2.0 * e_prime + 1e-9, e_le_e_dprime=e <= e_dprime + 1e-9,
        w_exact=plan.exact,
    )


def random_partition(rng, n, splits):
    """Leaf cells of a random chain of admissible splits."""
    cells = [Cell.root(n)]
    for _ in range(splits):
        k = int(rng.integers(len(cells)))
        pairs = admissible_pairs(cells[k])
        if pairs:
            cells[k : k + 1] = cells[k].split(pairs[int(rng.integers(len(pairs)))])
    return cells


def test_distortion_report_matches_conditional_oracle(rng):
    # every field, floats included, equals the report built from dist.condition
    for _ in range(60):
        n = int(rng.integers(2, 7))
        dist = random_rational_distribution(rng, n, max_support=30)
        cells = random_partition(rng, n, int(rng.integers(0, 6)))
        meds = [random_permutation(rng, n) for _ in cells]
        assert distortion_report(dist, cells, meds) == conditional_report(dist, cells, meds)


def pruning_steps(tree, s):
    """(cells, medians) of every frontier of the weakest-link sequence."""
    from coastrank.tree import prune_sequence

    steps = []
    for sub in prune_sequence(tree, s):
        atoms = sub.crd().atoms
        steps.append(([c for _, _, c in atoms], [m for _, m, _ in atoms]))
    return steps


def assert_reports_match_oracle(dist, steps):
    reports = distortion_reports(dist, steps)
    assert len(reports) == len(steps)
    for rep, (cells, meds) in zip(reports, steps):
        assert rep == conditional_report(dist, cells, meds)
        assert rep.w_exact is True and rep.pivots >= rep.bland_pivots >= 0


def test_distortion_reports_match_conditional_oracle_on_pruning_sequences(rng):
    from coastrank.tree import grow

    empty_leaves = shared = 0
    for t in range(12):
        n = 3 + t % 5
        s = random_sample(rng, n, int(rng.integers(40, 120)))
        tree, _ = grow(s, epsilon=0.0, max_leaves=int(rng.integers(2, 9)))
        steps = pruning_steps(tree, s)  # also gives every collapsed node a median
        assert_reports_match_oracle(DiscreteRankingDistribution.empirical(s), steps)
        # evaluated on another, smaller sample: some leaves hold none of its rows
        other = DiscreteRankingDistribution.empirical(random_sample(rng, n, 4))
        empty_leaves += sum(
            not any(c.contains(p) for p in other.support) for c in steps[0][0]
        )
        assert_reports_match_oracle(other, steps)
        # two cells sharing a median: their atoms merge into one
        cells, meds = steps[0]
        if len(cells) > 2:
            assert all(any(map(c.contains, s.rankings)) for c in cells[:2])
            assert_reports_match_oracle(
                DiscreteRankingDistribution.empirical(s), [(cells, [meds[1]] + meds[1:])]
            )
            shared += 1
    assert empty_leaves > 0 and shared > 0


def test_distortion_reports_evaluate_each_cell_once(rng, monkeypatch):
    from coastrank import transport
    from coastrank.tree import grow

    s = random_sample(rng, 5, 200)
    tree, _ = grow(s, epsilon=0.0, max_leaves=6)
    steps = pruning_steps(tree, s)
    calls = []
    cell_stats = transport._cell_stats
    monkeypatch.setattr(transport, "_cell_stats", lambda d, c: calls.append(c) or cell_stats(d, c))
    distortion_reports(DiscreteRankingDistribution.empirical(s), steps)
    assert len(calls) == len(set(calls)) == 2 * tree.leaf_count - 1


def test_distortion_reports_start_each_point_on_its_cell_atom(rng, monkeypatch):
    from coastrank import transport
    from coastrank.tree import grow

    s = random_sample(rng, 6, 150)
    tree, _ = grow(s, epsilon=0.0, max_leaves=5)
    steps = pruning_steps(tree, s)
    dist = DiscreteRankingDistribution.empirical(s)
    solved = []
    solve = transport.wasserstein
    monkeypatch.setattr(
        transport, "wasserstein", lambda p, q, *a, **k: solved.append((q, k["start"])) or solve(p, q, *a, **k)
    )
    distortion_reports(dist, steps)
    assert len(solved) == len(steps)
    for (cells, meds), (q, start) in zip(steps, solved):
        for cell, med in zip(cells, meds):
            inside = [k for k, p in enumerate(dist.support) if cell.contains(p)]
            assert all(q.support[start[k]] == med for k in inside)


def test_distortion_reports_start_shared_and_massless_medians_on_their_atoms(monkeypatch):
    from coastrank import transport

    e, r = Permutation.identity(3), reversal(3)
    c0, c1 = Cell.root(3).split((0, 1))
    solved = []
    solve = transport.wasserstein
    monkeypatch.setattr(
        transport, "wasserstein", lambda p, q, *a, **k: solved.append((q, k["start"])) or solve(p, q, *a, **k)
    )
    both = DiscreteRankingDistribution.from_pairs([(e, 0.5), (Permutation((1, 0, 2)), 0.5)])
    distortion_reports(both, [([c0, c1], [r, r]), ([c0, c1], [e, r])])
    # one shared atom, then atoms in rank order: e before r
    assert [q.support for q, _ in solved] == [(r,), (e, r)]
    assert [start.tolist() for _, start in solved] == [[0, 0], [0, 1]]
    solved.clear()
    # c1 holds no mass, so its median adds no atom and no point starts on it
    rep = distortion_report(DiscreteRankingDistribution.from_pairs([(e, 1.0)]), [c0, c1], [r, e])
    assert [q.support for q, _ in solved] == [(r,)]
    assert solved[0][1].tolist() == [0] and rep.w == 3.0


def test_plan_rows_and_cols_are_the_supports_rank_arrays(rng):
    p, q = tiny_distribution(rng, 4, 6), tiny_distribution(rng, 4, 5)
    _, plan = wasserstein(p, q)
    assert plan.rows is p.ranks and plan.cols is q.ranks
    assert np.shares_memory(plan.rows, p.ranks) and np.shares_memory(plan.cols, q.ranks)
    verify_plan(plan, p, q)


def test_distortion_reports_check_every_step(rng):
    dist = random_rational_distribution(rng, 3, max_support=6)
    c0, c1 = Cell.root(3).split((0, 1))
    med = Permutation.identity(3)
    good = ([Cell.root(3)], [med])
    with pytest.raises(PartitionIntegrityError):
        distortion_reports(dist, [good, ([c0, c1, c0], [med] * 3)])
    with pytest.raises(RejectedInputError):
        distortion_reports(dist, [good, ([c0, c1], [med])])
    with pytest.raises(DimensionMismatchError):
        distortion_reports(dist, [good, ([c0, c1], [med, Permutation.identity(4)])])
    assert distortion_reports(dist, []) == []


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
    rep = distortion_report(dist, [c0, c1], [Permutation.identity(3), reversal(3)])
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


# --- network simplex ----------------------------------------------------------


def seeded_transport_problems(rng, count):
    """Integer problems, many degenerate: {0, 1} costs, equal supplies, one row or column."""
    for t in range(count):
        m, n = int(rng.integers(1, 14)), int(rng.integers(1, 9))
        if t % 5 == 3:
            m = 1
        elif t % 5 == 4:
            n = 1
        hi = 2 if t % 2 == 0 else 25
        cost = rng.integers(0, hi, size=(m, n)).astype(np.int64)
        total = m * n * int(rng.integers(1, 4))
        if t % 3 == 0:
            a = np.full(m, total // m, dtype=np.int64)
            b = np.full(n, total // n, dtype=np.int64)
        else:
            a = rng.multinomial(total, np.full(m, 1.0 / m)).astype(np.int64) + 1
            b = rng.multinomial(total, np.full(n, 1.0 / n)).astype(np.int64)
            b[0] += m  # keep the totals equal after lifting every supply by 1
        yield cost, a, b


def assert_same_pivots(cost, a, b):
    """The solver and the plain-tree oracle take the same pivots to the same flow."""
    flow, pivots, bland = _solve_transport(cost, a, b)
    want_flow, want_pivots, want_bland = subtree_transport(cost, a, b)
    assert (pivots, bland) == (want_pivots, want_bland)
    assert np.array_equal(flow, want_flow)
    return flow, pivots, bland


def test_network_simplex_pivots_match_subtree_oracle(rng):
    # with rows and columns swapped, row leaves become column leaves
    pivots = 0
    for cost, a, b in seeded_transport_problems(rng, 150):
        pivots += assert_same_pivots(cost, a, b)[1]
        pivots += assert_same_pivots(np.ascontiguousarray(cost.T), b, a)[1]
    assert pivots > 300


def test_network_simplex_pivots_match_subtree_oracle_with_empty_nodes(rng):
    # zero supplies and demands give zero-flow basic cells and ties between
    # the running totals the north-west corner steps by
    for t in range(300):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        cost = rng.integers(0, (2, 5, 30)[t % 3], size=(m, n)).astype(np.int64)
        total = int(rng.integers(0, 12))
        a = rng.multinomial(total, np.full(m, 1.0 / m)).astype(np.int64)
        b = rng.multinomial(total, np.full(n, 1.0 / n)).astype(np.int64)
        assert_same_pivots(cost, a, b)


def test_network_simplex_matches_bland_oracle(rng):
    for cost, a, b in seeded_transport_problems(rng, 150):
        flow, pivots, _ = _solve_transport(cost, a, b)
        assert flow.dtype == np.int64 and (flow >= 0).all()
        assert (flow.sum(axis=1) == a).all() and (flow.sum(axis=0) == b).all()
        assert np.count_nonzero(flow) <= len(a) + len(b) - 1  # a basic solution
        assert int((flow * cost).sum()) == int((bland_transport(cost, a, b) * cost).sum())


def test_crd_problem_matches_linear_programming():
    # an n=7 empirical distribution against the 8 atoms of its fitted CRD,
    # the shape of problem eval solves at every pruning step
    from coastrank.models import MixtureSpec, sample_mixture
    from coastrank.tree import grow

    rng = np.random.default_rng(7)
    spec = MixtureSpec.from_json_obj({"n": 7, "seed": 1, "components": [
        {"type": "mallows", "center": [int(x) + 1 for x in rng.permutation(7)],
         "phi": 0.7, "mix": 1 / 3} for _ in range(3)]})
    s = sample_mixture(spec, 350)
    tree, _ = grow(s, epsilon=0.0, max_leaves=8)
    p = DiscreteRankingDistribution.empirical(s)
    q = crd_distribution(tree.crd())
    assert p.size > 250 and q.size == 8
    a, b, _, exact = _integer_weights(p, q)
    assert exact and (a > 0).all() and (b > 0).all()
    cost = hamming_cross(p.support_comparisons, q.support_comparisons)
    assert assert_same_pivots(cost, a, b)[1] > 20
    assert assert_same_pivots(np.ascontiguousarray(cost.T), b, a)[1] > 20
    w, plan = wasserstein(p, q)
    verify_plan(plan, p, q)
    assert plan.exact
    cost = hamming_cross(p.support_comparisons, q.support_comparisons)
    m1, m2 = p.size, q.size
    a_eq = np.zeros((m1 + m2, m1 * m2))
    for i in range(m1):
        a_eq[i, i * m2 : (i + 1) * m2] = 1.0
    for j in range(m2):
        a_eq[m1 + j, j::m2] = 1.0
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([p.weights, q.weights]),
                  method="highs")
    assert res.status == 0
    assert w == pytest.approx(res.fun, abs=1e-7)


def test_degenerate_assignment_terminates_through_bland_fallback():
    # a 60 x 60 assignment problem: every basis carries 59 zero-flow cells,
    # so Dantzig pricing stalls and the Bland fallback has to take over
    rng = np.random.default_rng(0)
    cost = rng.integers(0, 30, size=(60, 60)).astype(np.int64)
    ones = np.ones(60, dtype=np.int64)
    flow, pivots, bland = assert_same_pivots(cost, ones, ones)
    assert bland > 0
    assert pivots <= 60 * 60
    assert (flow.sum(axis=0) == 1).all() and (flow.sum(axis=1) == 1).all()
    r, c = linear_sum_assignment(cost)
    assert int((flow * cost).sum()) == int(cost[r, c].sum())


def test_rounded_weights_are_flagged_inexact(rng):
    # 1/p for two large primes: the common denominator overflows int64 pipelines
    w1, w2 = 1 / 9999991, 1 / 9999973
    perms = [Permutation.identity(4), reversal(4), random_permutation(rng, 4)]
    p = DiscreteRankingDistribution(4, tuple(sorted(perms, key=lambda x: x.ranks)),
                                    np.array([w1, w2, 1 - w1 - w2]))
    q = tiny_distribution(rng, 4, 5)
    *_, exact = _integer_weights(p, q)
    assert exact is False
    w, plan = wasserstein(p, q)
    assert plan.exact is False
    assert w == pytest.approx(brute_wasserstein(p, q), abs=1e-6)
    rep = distortion_report(p, [Cell.root(4)], [exact_kemeny(p).median])
    assert rep.w_exact is False


def test_empirical_weights_are_exact(rng):
    from conftest import random_sample

    dist = DiscreteRankingDistribution.empirical(random_sample(rng, 5, 200))
    cells = Cell.root(5).split((0, 1))
    rep = distortion_report(dist, cells, conditional_medians(dist, cells))
    assert rep.w_exact is True
    _, plan = wasserstein(dist, dist)
    assert plan.exact is True
    capped = distortion_report(dist, cells, conditional_medians(dist, cells), solver_limit=3)
    assert capped.w is None and capped.w_exact is None


def test_caller_given_start_order_reaches_the_same_optimum(rng):
    for cost, a, b in seeded_transport_problems(rng, 150):
        default = _solve_transport(cost, a, b)
        nearest = np.argsort(np.argmin(cost, axis=1), kind="stable")
        named = _solve_transport(cost, a, b, nearest)
        assert named[1:] == default[1:] and np.array_equal(named[0], default[0])
        flow, _, _ = _solve_transport(cost, a, b, rng.permutation(len(a)))
        assert (flow.sum(axis=1) == a).all() and (flow.sum(axis=0) == b).all()
        assert np.count_nonzero(flow) <= len(a) + len(b) - 1
        assert int((flow * cost).sum()) == int((default[0] * cost).sum())


def test_start_order_by_atom_is_the_ship_to_atom_coupling(rng):
    # with every cost zero the start is already optimal, so the solver
    # returns it untouched: each row ships its whole supply to its atom
    for _ in range(50):
        m, k = int(rng.integers(1, 40)), int(rng.integers(1, 8))
        atom = rng.integers(0, k, size=m)
        a = rng.integers(1, 20, size=m).astype(np.int64)
        b = np.bincount(atom, weights=a, minlength=k).astype(np.int64)
        keep = b > 0
        atom = np.cumsum(keep)[atom] - 1  # renumbered over the atoms that take mass
        flow, pivots, _ = _solve_transport(
            np.zeros((m, int(keep.sum())), dtype=np.int64), a, b[keep],
            np.argsort(atom, kind="stable"),
        )
        assert pivots == 0
        assert (flow[np.arange(m), atom] == a).all()


def test_wasserstein_starts_rows_in_the_given_atom_order(rng, monkeypatch):
    from coastrank import transport

    orders = []
    solve = transport._solve_transport
    monkeypatch.setattr(
        transport, "_solve_transport", lambda *a: orders.append(a[3]) or solve(*a)
    )
    for _ in range(20):
        p = random_rational_distribution(rng, 4, max_support=12)
        q = random_rational_distribution(rng, 4, max_support=4)
        # a zero-weight point carries no supply, so the solver never sees it
        weights = p.weights.copy()
        if p.size > 1:
            weights[-1] = 0.0
            weights /= weights.sum()
        p = DiscreteRankingDistribution(4, p.support, weights)
        start = rng.integers(0, q.size, size=p.size)
        w, _ = wasserstein(p, q, start=start)
        assert w == pytest.approx(wasserstein(p, q)[0], abs=1e-12)
        kept = np.flatnonzero(weights > 0)
        assert np.array_equal(orders[-2], np.argsort(start[kept], kind="stable"))
        assert orders[-1] is None


def _without_counts(d):
    return DiscreteRankingDistribution(d.n, d.support, d.weights)


def _fractions(ints, denom):
    from fractions import Fraction

    return [Fraction(int(v), denom) for v in ints]


def test_count_supplies_equal_the_fraction_path():
    # N = 350 against a 7-row sample: the count path scales both sides to
    # lcm(350, 7) and reproduces the fractions the weights stand for
    from coastrank.models import MixtureSpec, sample_mixture

    spec = MixtureSpec.from_json_obj({"n": 5, "seed": 3, "components": [
        {"type": "mallows", "center": [1, 2, 3, 4, 5], "phi": 0.5, "mix": 1.0}]})
    big = DiscreteRankingDistribution.empirical(sample_mixture(spec, 350))
    small = DiscreteRankingDistribution.empirical(sample_mixture(spec.with_seed(4), 7))
    assert big.counts.sum() == 350 and small.counts.sum() == 7
    for p, q in ((big, small), (small, big), (big, big)):
        a, b, denom, exact = _integer_weights(p, q)
        fa, fb, fdenom, fexact = _integer_weights(_without_counts(p), _without_counts(q))
        assert exact and fexact and denom == math.lcm(int(p.counts.sum()), int(q.counts.sum()))
        assert _fractions(a, denom) == _fractions(fa, fdenom)
        assert _fractions(b, denom) == _fractions(fb, fdenom)
        w, plan = wasserstein(p, q)
        assert w == wasserstein(_without_counts(p), _without_counts(q))[0]
        assert plan.exact


def test_float_weights_take_the_fraction_path(monkeypatch):
    from coastrank import transport
    from coastrank.models import MallowsParams, mallows_distribution

    mallows = mallows_distribution(MallowsParams(Permutation.identity(4), 0.8))
    assert mallows.counts is None
    emp = DiscreteRankingDistribution.empirical(random_sample(np.random.default_rng(1), 4, 30))
    converted = []
    fraction = transport.Fraction
    monkeypatch.setattr(transport, "Fraction", lambda *a: converted.append(a) or fraction(*a))
    a, b, denom, _ = _integer_weights(mallows, emp)
    assert converted
    assert a.sum() == b.sum() == denom
    converted.clear()
    _integer_weights(emp, emp)
    assert not converted
