"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Each
test exercises a headline guarantee of the package end to end, with sizes,
tolerances, and time budgets pinned; randomized parts use fixed seeds.
"""

import time

import numpy as np
import pytest
import scipy.optimize
import scipy.stats

from coastrank.cells import Cell
from coastrank.consensus import (
    SstKind,
    copeland_median,
    dispersion_v,
    dispersion_v_prime,
    exact_kemeny,
    sst_status,
)
from coastrank.analysis import chain_pmf, homogeneity_test, local_depths, smooth_cell
from coastrank.models import (
    MallowsParams,
    mallows_distribution,
    random_mallows_mixture_spec,
    sample_mallows,
    sample_mixture,
)
from coastrank.perms import (
    DiscreteRankingDistribution,
    PairwiseMatrix,
    Permutation,
    RankingSample,
    comparison_matrix,
    kendall_tau,
    num_pairs,
    ranking_risk,
)
from coastrank.transport import distortion_report, wasserstein
from coastrank.tree import grow, prune_sequence

from conftest import random_permutation, random_rational_distribution, random_sample
from oracles import (
    admissible_pairs,
    condition,
    crd_distribution,
    enumerate_permutations,
    l2_distance,
    members_of,
)
from test_analysis import random_strict_sst_distribution


def _report(cid: str, label: str, ok: bool, detail: str = "") -> None:
    line = f"[{cid}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_partition(rng, n, max_splits=3):
    """Random refinement of the one-cell partition by admissible splits."""
    cells = [Cell.root(n)]
    for _ in range(int(rng.integers(0, max_splits + 1))):
        idx = int(rng.integers(0, len(cells)))
        pairs = admissible_pairs(cells[idx])
        if not pairs:
            continue
        pair = pairs[int(rng.integers(0, len(pairs)))]
        c0, c1 = cells.pop(idx).split(pair)
        cells.extend([c0, c1])
    return cells


def _conditional_medians(dist, cells):
    """Exact per-cell medians (placeholder for zero-mass cells)."""
    medians = []
    for cell in cells:
        mask = np.array([cell.contains(q) for q in dist.support])
        mass, cond = condition(dist, mask)
        medians.append(
            exact_kemeny(cond).median if cond is not None else Permutation.identity(dist.n)
        )
    return medians


def test_c01_transport_bound_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    instances = 0
    for _ in range(500):
        n = int(rng.integers(3, 6))
        dist = random_rational_distribution(rng, n, max_support=min(24, 2 * n * n))
        cells = _random_partition(rng, n)
        rep = distortion_report(dist, cells, _conditional_medians(dist, cells))
        assert rep.e is not None
        assert rep.w_le_e, f"W={rep.w} > E={rep.e}"
        assert rep.e_le_two_e_prime, f"E={rep.e} > 2E'={2 * rep.e_prime}"
        instances += 1

    # one-cell partition: the transport distance equals the optimal risk
    for _ in range(20):
        n = int(rng.integers(3, 6))
        dist = random_rational_distribution(rng, n, max_support=20)
        rep = distortion_report(dist, [Cell.root(n)], _conditional_medians(dist, [Cell.root(n)]))
        risk = exact_kemeny(dist).risk
        assert rep.w == pytest.approx(rep.e, abs=1e-9)
        assert rep.w == pytest.approx(risk, abs=1e-9)

    # per-point partition: zero distortion
    def chain_cell(p):
        o = p.ordering()
        return Cell(p.n, frozenset(
            (o[i], o[j]) for i in range(p.n) for j in range(i + 1, p.n)
        ))

    for _ in range(20):
        n = int(rng.integers(3, 6))
        dist = random_rational_distribution(rng, n, max_support=15)
        cells = [chain_cell(p) for p in dist.support]
        rep = distortion_report(dist, cells, list(dist.support))
        assert rep.w == pytest.approx(0.0, abs=1e-12)

    elapsed = time.perf_counter() - t0
    _report(
        "C01", "transport bounds (W <= E <= 2E', endpoints exact)",
        instances >= 500 and elapsed < 60,
        f"{instances} instances, {elapsed:.1f}s",
    )


def test_c02_pairwise_winner_equals_exact_median():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    accepted = 0
    tries = 0
    while accepted < 300 and tries < 3000:
        tries += 1
        n = int(rng.integers(3, 7))
        size = int(rng.integers(5, 26)) * 2 + 1  # odd: no exact half marginals
        params = MallowsParams(
            center=random_permutation(rng, n), phi=float(rng.uniform(0.4, 1.4))
        )
        s = sample_mallows(params, size, rng)
        m = PairwiseMatrix.from_comparisons(s.n, comparison_matrix(s.ranks_matrix))
        if sst_status(m).kind is not SstKind.STRICT:
            continue
        dist = DiscreteRankingDistribution.empirical(s)
        result = exact_kemeny(dist)
        cop = copeland_median(m)
        assert cop in result.medians, "pairwise winner missed the exact argmin set"
        assert result.risk == pytest.approx(dispersion_v(m), abs=1e-9)
        accepted += 1
    elapsed = time.perf_counter() - t0
    _report(
        "C02", "pairwise winner is the exact median under strict transitivity",
        accepted >= 300 and elapsed < 60,
        f"{accepted}/{tries} strictly transitive draws, {elapsed:.1f}s",
    )


def test_c03_growth_endpoints():
    spec = random_mallows_mixture_spec(n=6, k=3, phi=1.0, seed=303)
    s = sample_mixture(spec, 180)

    probe, _ = grow(s, epsilon=1e18)
    v_root = probe.root.v_hat
    coarse, _ = grow(s, epsilon=v_root)
    crd = coarse.crd()
    dist = DiscreteRankingDistribution.empirical(s)
    one_atom = crd.k == 1
    at_median = crd.atoms[0][1] in exact_kemeny(dist).medians

    fine, _ = grow(s, epsilon=0.0)
    zero_l2 = l2_distance(crd_distribution(fine.crd()), dist) == 0.0

    _report(
        "C03", "growth endpoints (coarsest = one global median, finest = data)",
        one_atom and at_median and zero_l2,
        f"atoms={crd.k}, fine leaves={fine.leaf_count}",
    )


def _mode_recovery_run(K: int, rule: str, seeds) -> tuple[int, int]:
    med_ok = 0
    plateau_ok = 0
    for seed in seeds:
        spec = random_mallows_mixture_spec(
            n=10, k=K, phi=2.0, seed=seed, min_separation=10
        )
        s = sample_mixture(spec, 100 * K)
        tree, trace = grow(s, epsilon=0.0, rule=rule, max_leaves=4 * K)
        sub = next(t for t in prune_sequence(tree, s) if t.leaf_count == K)
        medians = [m for _, m, _ in sub.crd().atoms]
        centers = [p.center for p, _ in spec.components]
        cost = np.array([[kendall_tau(m, c) for c in centers] for m in medians])
        ri, ci = scipy.optimize.linear_sum_assignment(cost)
        if cost[ri, ci].mean() <= 2.0:
            med_ok += 1
        # each trace step may apply many splits at once, so normalize the
        # criterion drop per split before comparing against the root scale
        root_crit = trace.steps[0].criterion
        flat = all(
            (prev.criterion - cur.criterion)
            / (cur.leaf_count - prev.leaf_count)
            / root_crit
            < 0.05
            for prev, cur in zip(trace.steps, trace.steps[1:])
            if prev.leaf_count >= K
        )
        if flat:
            plateau_ok += 1
    return med_ok, plateau_ok


def test_c04_mode_recovery():
    t0 = time.perf_counter()
    results = {}
    ok = True
    for K in (4, 8):
        for rule in ("min-distortion", "balanced"):
            seeds = [1000 * K + i for i in range(10)]
            med_ok, plateau_ok = _mode_recovery_run(K, rule, seeds)
            results[(K, rule)] = (med_ok, plateau_ok)
            ok = ok and med_ok >= 8 and plateau_ok >= 8
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120
    detail = "; ".join(
        f"K={k} {r}: centers {m}/10, plateau {p}/10"
        for (k, r), (m, p) in results.items()
    )
    _report("C04", "mixture mode recovery with criterion plateau", ok,
            f"{detail}; {elapsed:.1f}s")


def _auc(pos_scores, neg_scores) -> float:
    """P(positive score > negative) + half the ties, via midranks."""
    pos = np.asarray(pos_scores, dtype=float)
    neg = np.asarray(neg_scores, dtype=float)
    ranks = scipy.stats.rankdata(np.concatenate([pos, neg]))
    u = ranks[: len(pos)].sum() - len(pos) * (len(pos) + 1) / 2
    return float(u / (len(pos) * len(neg)))


def test_c05_anomaly_separation():
    t0 = time.perf_counter()
    K = 4
    per_seed = []
    ok = True
    for seed in range(10):
        spec = random_mallows_mixture_spec(
            n=10, k=K, phi=2.0, seed=7000 + seed, min_separation=10
        )
        train = sample_mixture(spec, 100 * K)
        tree, _ = grow(train, epsilon=0.0, max_leaves=4 * K)
        sub_k = next(t for t in prune_sequence(tree, train) if t.leaf_count == K)
        sub_root = tree.subtree([0])
        inliers = sample_mixture(spec.with_seed(8000 + seed), 100)
        out_rng = np.random.default_rng(9000 + seed)
        outliers = RankingSample(
            tuple(random_permutation(out_rng, 10) for _ in range(100))
        )

        def split_auc(sub):
            d_in = local_depths(sub, train, inliers).local_depth.tolist()
            d_out = local_depths(sub, train, outliers).local_depth.tolist()
            # anomaly score is negated depth: outliers should score higher
            return _auc([-d for d in d_out], [-d for d in d_in])

        auc_k, auc_root = split_auc(sub_k), split_auc(sub_root)
        per_seed.append((auc_k, auc_root))
        ok = ok and auc_k >= 0.9 and auc_root <= auc_k
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60
    worst = min(a for a, _ in per_seed)
    _report(
        "C05", "anomaly separation (partitioned depth beats global depth)",
        ok, f"min AUC at {K} leaves {worst:.3f}, {elapsed:.1f}s",
    )


def test_c06_smoothing_identity_and_oracle():
    rng = np.random.default_rng(606)
    identity_checked = 0
    strict_hits = 0
    for trial in range(60):
        n = int(rng.integers(3, 6))
        s = random_sample(rng, n, int(rng.integers(10, 40)))
        if trial % 2:
            cell = Cell.root(n)
        else:
            i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
            cell = Cell(n, frozenset({(i, j)}))
            if not cell.membership_mask(s).any():
                continue
        sm = smooth_cell(s, cell, "enumeration")
        cond = DiscreteRankingDistribution.empirical(
            s.subset(np.flatnonzero(cell.membership_mask(s)))
        )
        top = num_pairs(n)
        for perm in enumerate_permutations(n):
            want = top - ranking_risk(cond, perm)
            assert sm.score_of(perm) == pytest.approx(want, abs=1e-12)
        assert sum(v / sm.z for v in sm.scores) == pytest.approx(1.0, abs=1e-9)
        identity_checked += 1

    for seed in range(40):
        s = sample_mallows(
            MallowsParams(center=random_permutation(rng, 5), phi=1.0),
            151,
            np.random.default_rng(seed),
        )
        sm = smooth_cell(s, Cell.root(5), "enumeration")
        if sst_status(sm.marginals).kind is not SstKind.STRICT:
            continue
        cop = copeland_median(sm.marginals)
        assert sm.scores[members_of(sm).index(cop)] == pytest.approx(max(sm.scores), abs=1e-12)
        strict_hits += 1

    _report(
        "C06", "smoothing identity, unit mass, and pairwise-winner argmax",
        identity_checked >= 40 and strict_hits >= 10,
        f"{identity_checked} cells exhaustively checked, {strict_hits} strict argmax checks",
    )


def test_c07_conditioning_preserves_transitivity():
    rng = np.random.default_rng(707)
    counterexamples = 0
    for _ in range(200):
        n = int(rng.integers(3, 6))
        dist = random_strict_sst_distribution(rng, n)
        p = dist.marginals().p
        off = p - np.eye(n) * 10.0
        a, b = np.unravel_index(int(off.argmax()), off.shape)
        cell = Cell(n, frozenset({(int(a), int(b))}))
        mask = np.array([cell.contains(q) for q in dist.support])
        mass, cond = condition(dist, mask)
        assert mass > 0
        if sst_status(cond.marginals()).kind is SstKind.NOT_TRANSITIVE:
            counterexamples += 1
    _report(
        "C07", "conditioning on the strongest pair preserves transitivity",
        counterexamples == 0, f"0 counterexamples required, found {counterexamples}",
    )


def test_c08_chain_factorization():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        dist = random_rational_distribution(rng, n, max_support=14)
        for perm in enumerate_permutations(n):
            err = abs(chain_pmf(dist, perm) - dist.prob_of(perm))
            worst = max(worst, err)
    _report(
        "C08", "sequential pair-agreement factorization equals the mass function",
        worst <= 1e-12, f"max abs error {worst:.2e} over 100 distributions",
    )


def test_c09_homogeneity_power_and_calibration():
    t0 = time.perf_counter()
    master = np.random.default_rng(909)
    reps = 200
    # The three mixture configurations are stated in the base convention
    # (density proportional to phi^distance); this package's dispersion is the
    # exponential rate, so phi_rate = ln(1/phi_base).
    rate_ref = float(np.log(1 / 0.2))
    rate_flat = float(np.log(1 / 0.05))
    h0_rejections = 0
    h1a_min_ps = []
    h1b_min_ps = []
    for _ in range(reps):
        seeds = [int(v) for v in master.integers(0, 2**31, size=6)]
        ref = random_mallows_mixture_spec(n=6, k=8, phi=rate_ref, seed=seeds[0])
        train = sample_mixture(ref.with_seed(seeds[1]), 100)
        trees = [grow(train, epsilon=0.0, max_leaves=2**k)[0] for k in range(4)]
        qa = sample_mixture(ref.with_seed(seeds[2]), 100)
        qb0 = sample_mixture(ref.with_seed(seeds[3]), 100)
        qb1 = sample_mixture(
            random_mallows_mixture_spec(n=6, k=8, phi=rate_flat, seed=seeds[4]), 100
        )
        qb2 = sample_mixture(
            random_mallows_mixture_spec(n=6, k=4, phi=rate_ref, seed=seeds[5]), 100
        )

        def depths(tree, q):
            return local_depths(tree, train, q).local_depth.tolist()

        if homogeneity_test(depths(trees[3], qa), depths(trees[3], qb0)).p_value < 0.05:
            h0_rejections += 1
        h1a_min_ps.append(
            min(homogeneity_test(depths(t, qa), depths(t, qb1)).p_value for t in trees)
        )
        h1b_min_ps.append(
            min(homogeneity_test(depths(t, qa), depths(t, qb2)).p_value for t in trees)
        )
    elapsed = time.perf_counter() - t0
    rate = h0_rejections / reps
    med_a = float(np.median(h1a_min_ps))
    med_b = float(np.median(h1b_min_ps))
    ok = 0.01 <= rate <= 0.12 and med_a < 0.01 and med_b < 0.01 and elapsed < 300
    _report(
        "C09", "depth homogeneity test: calibrated under H0, powered under H1",
        ok,
        f"H0 rate {rate:.3f}, H1 median p {med_a:.2e} / {med_b:.2e}, {elapsed:.0f}s",
    )


def test_c10_split_rule_timing():
    spec = random_mallows_mixture_spec(n=50, k=4, phi=2.0, seed=1010, min_separation=10)
    s = sample_mixture(spec, 200)

    times = {}
    for rule in ("balanced", "min-distortion"):
        t0 = time.perf_counter()
        # constant-time stand-in aggregator: timing isolates the split search
        grow(s, epsilon=0.0, rule=rule, max_leaves=8,
             aggregator=lambda m, node_id=0: Permutation.identity(m.n))
        times[rule] = time.perf_counter() - t0
    ok = times["balanced"] <= times["min-distortion"]
    _report(
        "C10", "balanced splits fit no slower than distortion-scored splits",
        ok,
        f"balanced {times['balanced']:.3f}s vs min-distortion {times['min-distortion']:.3f}s",
    )


def _exact_criterion(dist, cells) -> float:
    total = 0.0
    for cell in cells:
        mask = np.array([cell.contains(q) for q in dist.support])
        mass, cond = condition(dist, mask)
        if cond is not None:
            total += mass * dispersion_v_prime(cond.marginals())
    return total


def test_c11_partition_identities():
    rng = np.random.default_rng(1111)
    dists = [
        random_rational_distribution(rng, 4, max_support=20),
        mallows_distribution(MallowsParams(center=random_permutation(rng, 4), phi=0.7)),
        random_rational_distribution(rng, 3, max_support=6),
        DiscreteRankingDistribution.from_pairs(
            [(p, 1 / 2) for p in enumerate_permutations(2)]
        ),
    ]
    refine_checks = 0
    for dist in dists:
        n = dist.n
        depth_budget = 3 if n >= 4 else 4
        level = [[Cell.root(n)]]
        frontier = [[Cell.root(n)]]
        for _ in range(depth_budget):
            nxt = []
            for cells in frontier:
                base = _exact_criterion(dist, cells)
                p_base = sum(
                    (lambda mc: mc[0] * mc[1].marginals().p if mc[1] is not None else 0.0)(
                        condition(dist, np.array([c.contains(q) for q in dist.support]))
                    )
                    for c in cells
                )
                assert np.allclose(p_base, dist.marginals().p, atol=1e-12)
                for idx, cell in enumerate(cells):
                    for pair in admissible_pairs(cell):
                        c0, c1 = cell.split(pair)
                        refined = cells[:idx] + [c0, c1] + cells[idx + 1 :]
                        assert _exact_criterion(dist, refined) <= base + 1e-12
                        for child, forced in ((c0, 1.0), (c1, 0.0)):
                            mask = np.array(
                                [child.contains(q) for q in dist.support]
                            )
                            mass, cond = condition(dist, mask)
                            if cond is not None:
                                got = cond.marginals().entry(*pair)
                                # weight renormalization costs at most a few ulps
                                assert abs(got - forced) <= 1e-12
                        refine_checks += 1
                        nxt.append(refined)
            # keep the frontier bounded: every refinement was already asserted
            frontier = nxt[:: max(1, len(nxt) // 40)]
            level.append(frontier)
    _report(
        "C11", "marginal mixture identity and refinement monotonicity",
        refine_checks > 500, f"{refine_checks} refinements checked exhaustively per level",
    )
