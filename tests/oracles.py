"""Independent brute-force oracles used to pin expected values in tests.

Everything here is deliberately naive: direct definitions, exhaustive
enumeration, no shared code paths with the package internals beyond the
Permutation container type.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from coastrank.cells import Cell, tile_owners, v_hat_of_counts
from coastrank.consensus import make_aggregator
from coastrank.errors import (
    DimensionMismatchError,
    EnumerationLimitError,
    RankingParseError,
    RejectedInputError,
    json_int,
)
from coastrank.fileio import RunManifest
from coastrank.models import MallowsParams, MixtureSpec, PlackettLuceParams, mallows_normalizer
from coastrank.perms import (
    DiscreteRankingDistribution,
    ENUMERATION_LIMIT,
    PairwiseMatrix,
    Permutation,
    RankingSample,
    comparison_matrix,
    hamming_cross,
    num_pairs,
    pair_list,
    ranking_risk,
    symmetric_group,
)
from coastrank.transport import _DEGENERATE_RUN
from coastrank.tree import CRD


def enumerate_permutations(n: int, limit: int = ENUMERATION_LIMIT):
    """Yield all n! permutations once, lexicographically by rank vector."""
    if n < 1:
        raise RejectedInputError(f"n must be >= 1, got {n}")
    if n > limit:
        raise EnumerationLimitError(f"n={n} exceeds enumeration limit {limit}")
    for ranks in itertools.permutations(range(n)):
        yield Permutation._trusted(ranks)


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Function composition (formerly ``Permutation.compose``): (a . b)(i) = a(b(i))."""
    if a.n != b.n:
        raise DimensionMismatchError("compose: size mismatch")
    return Permutation(tuple(a.ranks[r] for r in b.ranks))


def admissible_pairs(cell: Cell) -> list[tuple[int, int]]:
    """Pairs (i, j), i < j, with neither order implied by the cell's closure
    (formerly ``Cell.admissible_pairs``)."""
    return [(i, j) for i, j in pair_list(cell.n) if cell.is_admissible(i, j)]


def crd_from_json_obj(obj: dict) -> CRD:
    """A CRD read back from ``CRD.to_json_obj`` (formerly ``CRD.from_json_obj``)."""
    try:
        n = json_int(obj["n"], "CRD n")
        atoms = tuple(
            (
                float(a["weight"]),
                Permutation.from_one_based(a["median"], "median"),
                Cell.from_json_obj(n, a["cell"]),
            )
            for a in obj["atoms"]
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, RejectedInputError):
            raise
        raise RejectedInputError(f"malformed CRD document: {exc}") from exc
    return CRD(n, atoms)


def manifest_from_json_obj(obj: dict) -> RunManifest:
    """A manifest read back from ``RunManifest.to_json_obj`` (formerly
    ``RunManifest.from_json_obj``)."""
    try:
        return RunManifest(
            command=str(obj["command"]),
            argv=tuple(str(a) for a in obj["argv"]),
            seed=None if obj.get("seed") is None else json_int(obj["seed"], "manifest seed"),
            config=dict(obj["config"]),
            inputs=dict(obj["inputs"]),
            outputs=dict(obj["outputs"]),
            wall_times=dict(obj["wall_times"]),
            counters=dict(obj.get("counters", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise RejectedInputError(f"malformed run manifest: {exc}") from exc


def gathered_comparison_matrix(ranks: np.ndarray) -> np.ndarray:
    """'i before j' bits from two (N, C(n,2)) gathers of the rank columns."""
    pairs = pair_list(ranks.shape[1])
    ii = np.fromiter((i for i, _ in pairs), dtype=np.int64)
    jj = np.fromiter((j for _, j in pairs), dtype=np.int64)
    return ranks[:, ii] < ranks[:, jj]


def loop_inverse_rows(a: np.ndarray) -> np.ndarray:
    """inverse_rows one row at a time: a row with a value outside 0..n-1 stays all -1,
    and a repeated value keeps its last position."""
    n = a.shape[1]
    inv = np.full(a.shape, -1, dtype=np.int32)
    for k, row in enumerate(a.tolist()):
        if all(0 <= v < n for v in row):
            for j, v in enumerate(row):
                inv[k, v] = j
    return inv


def naive_kendall(a: Permutation, b: Permutation) -> int:
    d = 0
    for i in range(a.n):
        for j in range(i + 1, a.n):
            if (a.ranks[i] - a.ranks[j]) * (b.ranks[i] - b.ranks[j]) < 0:
                d += 1
    return d


def kendall_tau_pairs(a: Permutation, b: Permutation) -> int:
    """O(n^2) pair-enumeration Kendall distance."""
    if a.n != b.n:
        raise DimensionMismatchError(f"kendall_tau: {a.n} vs {b.n} items")
    ra, rb = a.ranks, b.ranks
    return sum(
        1
        for i, j in itertools.combinations(range(a.n), 2)
        if (ra[i] - ra[j]) * (rb[i] - rb[j]) < 0
    )


def _count_inversions(seq: list[int]) -> int:
    """Inversion count by merge sort; O(len log len)."""
    n = len(seq)
    if n < 2:
        return 0
    work = list(seq)
    buf = [0] * n
    count = 0
    width = 1
    while width < n:
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if work[i] <= work[j]:
                    buf[k] = work[i]
                    i += 1
                else:
                    # work[j] jumps ahead of every element left in [i, mid)
                    buf[k] = work[j]
                    j += 1
                    count += mid - i
                k += 1
            buf[k:hi] = work[i:mid] if i < mid else work[j:hi]
            work[lo:hi] = buf[lo:hi]
        width *= 2
    return count


def merge_sort_kendall(a: Permutation, b: Permutation) -> int:
    """Kendall distance as the inversion count of b's ranks read in a's order."""
    if a.n != b.n:
        raise DimensionMismatchError(f"kendall_tau: {a.n} vs {b.n} items")
    return _count_inversions([b.ranks[item] for item in a.ordering()])


def ranking_depth(d: DiscreteRankingDistribution, sigma: Permutation) -> float:
    """Centrality of sigma under d: n(n-1)/2 minus the ranking risk."""
    return num_pairs(d.n) - ranking_risk(d, sigma)


def condition(dist: DiscreteRankingDistribution, mask):
    """(mass, conditional) of the support points a boolean mask selects.

    The conditional is None when the mass is 0.
    """
    mask = np.asarray(mask, dtype=bool)
    mass = float(dist.weights[mask].sum())
    if mass <= 0.0:
        return 0.0, None
    support = tuple(p for p, keep in zip(dist.support, mask) if keep)
    return mass, DiscreteRankingDistribution(dist.n, support, dist.weights[mask] / mass)


def v_hat_of_indices(s: RankingSample, indices) -> float:
    """Cell variability estimate of the given sample rows, from their column counts."""
    return v_hat_of_counts(comparison_matrix(s.ranks_matrix)[indices].sum(axis=0, dtype=np.int64), len(indices))


def route_one(tree, sigma: Permutation) -> int:
    """Leaf node id whose cell contains the ranking, one split test at a time."""
    if sigma.n != tree.n:
        raise RejectedInputError("ranking dimension mismatch")
    leaves = set(tree.frontier)
    cur = 0
    while cur not in leaves:
        node = tree.nodes[cur]
        i, j = node.split
        cur = node.children[0] if sigma.ranks[i] < sigma.ranks[j] else node.children[1]
    return cur


def verify_plan(
    plan, source: DiscreteRankingDistribution, target: DiscreteRankingDistribution, tol=1e-9
) -> None:
    """Check a transport plan's coupling invariants against its two endpoints."""
    if not (np.array_equal(plan.rows, source.ranks) and np.array_equal(plan.cols, target.ranks)):
        raise RejectedInputError("plan supports do not match the distributions")
    if np.abs(plan.flow.sum(axis=1) - source.weights).max() > tol:
        raise RejectedInputError("row sums do not reproduce source weights")
    if np.abs(plan.flow.sum(axis=0) - target.weights).max() > tol:
        raise RejectedInputError("column sums do not reproduce target weights")
    d = hamming_cross(source.support_comparisons, target.support_comparisons)
    if abs(float((plan.flow * d).sum()) - plan.cost) > tol:
        raise RejectedInputError("stored cost disagrees with the flow")


def enumerate_members(cell: Cell) -> list[Permutation]:
    """All permutations in the cell, in the S_n table's lexicographic order."""
    ranks, _ = symmetric_group(cell.n)
    return [Permutation._trusted(r) for r in ranks[cell.rank_mask(ranks)].tolist()]


def comparison_mask(cell: Cell, x: np.ndarray) -> np.ndarray:
    """Boolean mask of the rows of a comparison matrix lying in the cell."""
    col = {pair: c for c, pair in enumerate(pair_list(cell.n))}
    mask = np.ones(x.shape[0], dtype=bool)
    for a, b in cell.constraints:
        mask &= x[:, col[(a, b)]] if a < b else ~x[:, col[(b, a)]]
    return mask


def cell_owners(n: int, x: np.ndarray, cells) -> np.ndarray:
    """Index of the one cell holding each comparison row of x.

    Raises PartitionIntegrityError unless the cells tile the rows (every row
    matched by exactly one cell).
    """
    cells = list(cells)
    for cell in cells:
        if cell.n != n:
            raise DimensionMismatchError("cell over wrong item count")
    return tile_owners([comparison_mask(cell, x) for cell in cells])


def partition_criterion(s: RankingSample, cells) -> float:
    """Weighted intra-cell variability of a partition: sum (N_c/N) v_hat(c).

    Raises PartitionIntegrityError unless the cells tile the sample (every
    ranking matched by exactly one cell).
    """
    cells = list(cells)
    owners = cell_owners(s.n, comparison_matrix(s.ranks_matrix), cells)
    total = 0.0
    for ci in range(len(cells)):
        mask = owners == ci
        m = int(mask.sum())
        total += (m / s.size) * v_hat_of_counts(comparison_matrix(s.ranks_matrix)[mask].sum(axis=0, dtype=np.int64), m)
    return float(total)


def dict_from_pairs(pairs, counts=None):
    """(support, weights, counts) of from_pairs by a dict merge over rank tuples."""
    pairs = list(pairs)
    acc: dict[tuple[int, ...], float] = {}
    for perm, w in pairs:
        acc[perm.ranks] = acc.get(perm.ranks, 0.0) + float(w)
    items = sorted(acc.items())
    support = tuple(Permutation(r) for r, _ in items)
    weights = np.array([w for _, w in items], dtype=np.float64)
    if counts is not None:
        tally = dict.fromkeys(acc, 0)
        for (perm, _), k in zip(pairs, counts, strict=True):
            tally[perm.ranks] += int(k)
        counts = np.array([tally[r] for r, _ in items], dtype=np.int64)
    return support, weights, counts


def loop_check_support(n: int, support) -> None:
    """The support checks of a distribution, one point at a time."""
    if len(support) == 0:
        raise RejectedInputError("empty support")
    for p in support:
        if p.n != n:
            raise DimensionMismatchError("support permutation of wrong size")
    if len({p.ranks for p in support}) != len(support):
        raise RejectedInputError("support points must be distinct")


def members_of(sm) -> list[Permutation]:
    """A smoothed distribution's members as Permutation objects, in its order."""
    return [Permutation._trusted(r) for r in sm.members.tolist()]


def dict_smooth_json(scores: dict, z: float) -> dict:
    """The smoothing writer over Permutation-keyed scores: keys sorted by rank tuple."""
    return {
        ",".join(str(v) for v in perm.to_one_based()): scores[perm] / z
        for perm in sorted(scores, key=lambda q: q.ranks)
    }


def members_by_contains(cell: Cell) -> list[Permutation]:
    """The cell's members: every permutation of S_n that cell.contains accepts."""
    return [sigma for sigma in enumerate_permutations(cell.n) if cell.contains(sigma)]


def loop_uniform_marginals(cell: Cell) -> PairwiseMatrix:
    """Uniform-cell marginals as the mean of each pair's order over the members."""
    n = cell.n
    ranks = np.array([p.ranks for p in members_by_contains(cell)], dtype=np.int64)
    p = np.full((n, n), 0.5)
    for a, b in pair_list(n):
        val = float((ranks[:, a] < ranks[:, b]).mean())
        p[a, b] = val
        p[b, a] = 1.0 - val
    return PairwiseMatrix(n, p)


def loop_smooth_scores(marg: PairwiseMatrix, cell: Cell) -> dict:
    """Smoothing scores of the members: a Python sum over rank-position pairs."""
    o_pairs = list(itertools.combinations(range(cell.n), 2))
    scores = {}
    for perm in members_by_contains(cell):
        o = perm.ordering()
        scores[perm] = float(sum(marg.p[o[i], o[j]] for i, j in o_pairs))
    return scores


def loop_mallows_distribution(params: MallowsParams) -> DiscreteRankingDistribution:
    """The Mallows distribution with one merge-sort distance per permutation."""
    perms = list(enumerate_permutations(params.n))
    z = mallows_normalizer(params.n, params.phi)
    weights = np.array(
        [math.exp(-params.phi * merge_sort_kendall(p, params.center)) / z for p in perms]
    )
    return DiscreteRankingDistribution(params.n, tuple(perms), weights)


def choice_displacement_counts(n: int, phi: float, size: int, rng: np.random.Generator):
    """Mallows slot displacements drawn with Generator.choice, slot by slot."""
    q = math.exp(-phi)
    v = np.zeros((size, n), dtype=np.int64)
    for r in range(n - 1):
        m = n - 1 - r  # max displacement at this slot
        probs = q ** np.arange(m + 1)
        probs /= probs.sum()
        v[:, r] = rng.choice(m + 1, size=size, p=probs)
    return v


def compaction_ranks_from_displacements(v: np.ndarray) -> np.ndarray:
    """Decode displacement rows forward: at step r, the v[:, r]-th smallest
    unplaced item gets rank r and is compacted out of the remaining items."""
    size, n = v.shape
    remaining = np.tile(np.arange(n), (size, 1))
    ranks = np.empty((size, n), dtype=np.int64)
    rows = np.arange(size)
    for r in range(n):
        width = n - r
        idx = np.minimum(v[:, r], width - 1)
        picked = remaining[rows, idx]
        ranks[rows, picked] = r
        if width > 1:
            keep = np.arange(width)[None, :] != idx[:, None]
            remaining = remaining[keep].reshape(size, width - 1)
    return ranks


def choice_sample_mixture(spec: MixtureSpec, size: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """sample_mixture's ranks and labels for a Mallows-only spec, drawn by choice and compaction."""
    master = np.random.default_rng(spec.seed)
    mix = np.array([m for _, m in spec.components])
    labels = master.choice(spec.k, size=size, p=mix / mix.sum())
    children = master.spawn(spec.k)
    ranks = np.empty((size, spec.n), dtype=np.int64)
    for k, (params, _) in enumerate(spec.components):
        idx = np.nonzero(labels == k)[0]
        if idx.size:
            v = choice_displacement_counts(params.n, params.phi, idx.size, children[k])
            rho = compaction_ranks_from_displacements(v)
            ranks[idx] = rho[:, np.asarray(params.center.ranks)]
    return ranks, tuple(int(x) for x in labels)


def tiled_pl_ranks(params: PlackettLuceParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """Plackett-Luce draws over whole N×n float arrays: zero each picked worth, cumsum all rows."""
    n = params.n
    live = np.tile(np.asarray(params.worths, dtype=np.float64), (size, 1))
    ranks = np.empty((size, n), dtype=np.int64)
    rows = np.arange(size)
    for t in range(n):
        cum = np.cumsum(live, axis=1)
        thresh = rng.random(size) * cum[:, -1]
        picked = (cum > thresh[:, None]).argmax(axis=1)
        ranks[rows, picked] = t
        live[rows, picked] = 0.0
    return ranks


def crd_distribution(crd) -> DiscreteRankingDistribution:
    """A consensus ranking distribution as a distribution over rankings (equal medians merged)."""
    return DiscreteRankingDistribution.from_pairs((med, w) for w, med, _ in crd.atoms)


def brute_risk(dist: DiscreteRankingDistribution, sigma: Permutation) -> float:
    """The loop ranking risk: a Python sum of weight times distance, point by point."""
    return sum(w * naive_kendall(p, sigma) for p, w in zip(dist.support, dist.weights))


def brute_kemeny(dist: DiscreteRankingDistribution):
    """All risk minimizers over the full symmetric group, with the min risk."""
    best = None
    argmin = []
    for ranks in itertools.permutations(range(dist.n)):
        sigma = Permutation(ranks)
        r = brute_risk(dist, sigma)
        if best is None or r < best - 1e-12:
            best = r
            argmin = [sigma]
        elif abs(r - best) <= 1e-12:
            argmin.append(sigma)
    return argmin, best


def brute_marginal(dist: DiscreteRankingDistribution, i: int, j: int) -> float:
    return sum(w for p, w in zip(dist.support, dist.weights) if p.ranks[i] < p.ranks[j])


def brute_v_hat(sample: RankingSample, indices) -> float:
    """Spec formula for the cell variability estimate, computed naively."""
    idx = list(indices)
    m = len(idx)
    if m <= 1:
        return 0.0
    total = 0
    for a in range(m):
        for b in range(a + 1, m):
            total += naive_kendall(sample[idx[a]], sample[idx[b]])
    return total / (m * (m - 1))


def streamed_kemeny(dist: DiscreteRankingDistribution):
    """(medians, risk) by streaming S_n in lexicographic 50000-row chunks.

    The same float arithmetic as a chunked exact Kemeny median: risks are
    comparison rows times (1 - 2p) plus sum(p), one float64 product per chunk.
    """
    n = dist.n
    pairs = list(itertools.combinations(range(n), 2))
    p = dist.marginals().p
    upper = np.array([p[i, j] for i, j in pairs])
    base = float(upper.sum())
    coef = 1.0 - 2.0 * upper
    all_ranks = list(itertools.permutations(range(n)))
    risks = []
    for k in range(0, len(all_ranks), 50000):
        chunk = all_ranks[k : k + 50000]
        bits = np.array([[r[i] < r[j] for i, j in pairs] for r in chunk], dtype=np.float64)
        risks.extend((bits.reshape(len(chunk), len(pairs)) @ coef + base).tolist())
    best = min(risks)
    return tuple(Permutation(r) for r, v in zip(all_ranks, risks) if v <= best + 1e-9), best


def loop_climb(m: PairwiseMatrix, start: Permutation) -> Permutation:
    """Adjacent-swap descent in risk, scanning the n - 1 swaps in a Python loop."""
    order = list(start.ordering())
    while True:
        best_r, best_delta = -1, -1e-15
        for r in range(len(order) - 1):
            delta = 2.0 * m.p[order[r], order[r + 1]] - 1.0  # risk change if they swap
            if delta < best_delta:
                best_delta, best_r = delta, r
        if best_r < 0:
            return Permutation.from_ordering(order)
        order[best_r], order[best_r + 1] = order[best_r + 1], order[best_r]


def scan_climb(m: PairwiseMatrix, start: Permutation) -> Permutation:
    """The climb that scans its list of swap risk changes every step: ``min``
    for the best change and ``index`` for its first position. A swap updates
    only its own change and its two neighbours'; sentinels at both ends of
    the order have changes of +inf."""
    inf = float("inf")
    rows = [row + [inf] for row in m.p.tolist()] + [[inf] * (m.n + 1)]
    end = m.n
    order = [end, *start.ordering(), end]
    delta = [2.0 * rows[a][b] - 1.0 for a, b in zip(order, order[1:])]
    while True:
        best = min(delta)
        if not best < -1e-15:
            break
        r = delta.index(best)
        a, b = order[r + 1], order[r]
        order[r], order[r + 1] = a, b
        delta[r - 1] = 2.0 * rows[order[r - 1]][a] - 1.0
        delta[r] = 2.0 * rows[a][b] - 1.0
        delta[r + 1] = 2.0 * rows[b][order[r + 2]] - 1.0
    return Permutation.from_ordering(order[1:-1])


def loop_risk_from_marginals(m: PairwiseMatrix, sigma: Permutation) -> float:
    """Risk from marginals as a Python sum over the pairs in lexicographic order."""
    r = sigma.ranks
    total = 0.0
    for i, j in itertools.combinations(range(m.n), 2):
        total += m.p[i, j] if r[i] > r[j] else m.p[j, i]
    return float(total)


def loop_depth_climb_median(m: PairwiseMatrix, restarts: int, rng: np.random.Generator):
    """(median, risk) of the best loop_climb endpoint over random starts, ties to the smallest."""
    best, best_risk = None, math.inf
    for _ in range(restarts):
        end = loop_climb(m, Permutation(tuple(int(x) for x in rng.permutation(m.n))))
        r = loop_risk_from_marginals(m, end)
        if r < best_risk - 1e-12 or (
            abs(r - best_risk) <= 1e-12 and (best is None or end.ranks < best.ranks)
        ):
            best, best_risk = end, r
    return best, best_risk


def hamming_depths(qx: np.ndarray, fx: np.ndarray, max_depth: float) -> np.ndarray:
    """Depth of each query row from the full Q x N Hamming distance matrix."""
    if fx.shape[0] == 0:
        return np.zeros(qx.shape[0])
    dist = (qx[:, None, :] != fx[None, :, :]).sum(axis=2, dtype=np.int64)
    return max_depth - dist.mean(axis=1)


def brute_local_depths(tree, s_fit: RankingSample, s_query: RankingSample):
    """(local, global) depth arrays, routing every ranking one at a time."""
    top = float(tree.n * (tree.n - 1) // 2)
    qx, fx = comparison_matrix(s_query.ranks_matrix), comparison_matrix(s_fit.ranks_matrix)
    q_leaf = [route_one(tree, p) for p in s_query.rankings]
    f_leaf = np.array([route_one(tree, p) for p in s_fit.rankings])
    local = np.array(
        [hamming_depths(qx[k : k + 1], fx[f_leaf == leaf], top)[0] for k, leaf in enumerate(q_leaf)]
    )
    return local, hamming_depths(qx, fx, top)


def stored_route_sample(tree, x: np.ndarray) -> np.ndarray:
    """Leaf node id per row of a stored comparison matrix x, reading one bit
    column per split node."""
    column = {pair: c for c, pair in enumerate(pair_list(tree.n))}
    leaves = set(tree.frontier)
    out = np.empty(len(x), dtype=np.int64)
    stack = [(0, np.arange(len(x)))]
    while stack:
        nid, idx = stack.pop()
        if nid in leaves:
            out[idx] = nid
            continue
        node = tree.nodes[nid]
        bits = x[idx, column[node.split]]
        stack += [(node.children[0], idx[bits]), (node.children[1], idx[~bits])]
    return out


def stored_split(x: np.ndarray, n: int, rule: str) -> tuple[int, int]:
    """A node's split pair from its stored comparison rows x over n items, by
    the formulas grow uses: int64 Gram sums for min-distortion, the count
    nearest m/2 for balanced; ties go to the first pair."""
    m, xi = len(x), x.astype(np.int64)
    t = xi.sum(axis=0)
    cand = np.nonzero((t > 0) & (t < m))[0]
    if rule == "balanced":
        return pair_list(n)[int(cand[np.argmin(np.abs(t[cand] / m - 0.5))])]
    c0, m0 = (xi.T @ xi)[cand], t[cand][:, None]
    c1, m1 = t[None, :] - c0, m - m0

    def score(mm, ss):
        return np.where(mm >= 2, ss / np.maximum(mm - 1, 1), 0.0)

    total = score(m0[:, 0], (c0 * (m0 - c0)).sum(axis=1)) + score(
        m1[:, 0], (c1 * (m1 - c1)).sum(axis=1)
    )
    return pair_list(n)[int(cand[np.argmin(total)])]


def full_gram(panels) -> np.ndarray:
    """The C×C Gram matrix, in the panels' dtype, from its upper panels
    G[p:p+P, p:] as ``tree._gram`` returns them."""
    c = panels[0].shape[1]
    gram = np.zeros((c, c), dtype=panels[0].dtype)
    p = 0
    for panel in panels:
        q = p + panel.shape[0]
        gram[p:q, p:] = panel
        gram[q:, p:q] = panel[:, q - p :].T
        p = q
    return gram


def mask_leaf_counts(tree, s: RankingSample):
    """(rows, int64 column counts) per frontier leaf, routed and summed over
    the stored comparison matrix, one boolean mask per leaf."""
    x = comparison_matrix(s.ranks_matrix)
    leaf_of = stored_route_sample(tree, x)
    masks = [leaf_of == nid for nid in tree.frontier]
    rows = np.array([int(m.sum()) for m in masks], dtype=np.int64)
    counts = np.array([x[m].sum(axis=0, dtype=np.int64) for m in masks]).reshape(len(masks), -1)
    return rows, counts


def rescanning_prune_sequence(tree, s: RankingSample) -> list:
    """Weakest-link collapse sequence, each victim the minimum (collapse
    cost, node id) over a rescan of the whole frontier (formerly
    ``tree.prune_sequence``), with leaf counts from ``mask_leaf_counts``."""
    agg = tree.aggregator or make_aggregator("auto", seed=0)
    parent_of = {c: p for p, node in enumerate(tree.nodes) for c in node.children or ()}
    sizes, leaf_cnt = mask_leaf_counts(tree, s)
    rows = {nid: (int(m), c) for nid, m, c in zip(tree.frontier, sizes, leaf_cnt)}
    frontier = set(tree.frontier)
    seq = [tree]

    def cost(p):  # the criterion's increase if p collapses, then p
        a, b = (tree.nodes[c].contribution for c in tree.nodes[p].children)
        return tree.nodes[p].contribution - a - b, p

    while len(frontier) > 1:
        parents = {parent_of[nid] for nid in frontier if nid in parent_of}
        victim = min(sorted(p for p in parents if frontier.issuperset(tree.nodes[p].children)),
                     key=cost)
        node = tree.nodes[victim]
        (m0, c0), (m1, c1) = (rows.pop(c) for c in node.children)
        frontier.difference_update(node.children)
        frontier.add(victim)
        m, counts = rows[victim] = (m0 + m1, c0 + c1)
        if node.median is None:
            if m == 0:
                raise RejectedInputError(f"tree node {victim}: no sample rows to aggregate")
            node.median = agg(PairwiseMatrix.from_counts(s.n, counts, m), victim)
        seq.append(tree.subtree(frontier))
    return seq


def row_writer_depth_csv(table, path) -> None:
    """depths.csv / ddplot output, one csv.writer row per query."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "local_depth", "global_depth", "cell", "label"])
        for k in range(len(table)):
            label = None if table.labels is None else table.labels[k]
            w.writerow(
                [
                    int(table.index[k]),
                    "%.12g" % table.local_depth[k],
                    "%.12g" % table.global_depth[k],
                    int(table.cell[k]),
                    "" if label is None else label,
                ]
            )


def row_writer_anomaly_csv(table, path) -> None:
    """scores.csv, one csv.writer row per query."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "anomaly_score", "cell", "label"])
        for k in range(len(table)):
            label = None if table.labels is None else table.labels[k]
            w.writerow(
                [int(table.index[k]), "%.12g" % -float(table.local_depth[k]),
                 int(table.cell[k]), "" if label is None else label]
            )


def discrepancy_to_csv(rows, path) -> None:
    """uniform_marginal_discrepancy rows as CSV."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["item_a", "item_b", "enumeration", "factorized", "abs_diff", "diverges"])
        for r in rows:
            w.writerow(
                [
                    r["item_a"],
                    r["item_b"],
                    "%.12g" % r["enumeration"],
                    "%.12g" % r["factorized"],
                    "%.12g" % r["abs_diff"],
                    int(r["diverges"]),
                ]
            )


def loop_dispersion_v(m: PairwiseMatrix) -> float:
    return float(sum(min(m.p[i, j], m.p[j, i]) for i, j in pair_list(m.n)))


def loop_dispersion_v_prime(m: PairwiseMatrix) -> float:
    return float(sum(m.p[i, j] * m.p[j, i] for i, j in pair_list(m.n)))


def _solve_basis_flow(chosen, supply, demand, m, k):
    """Unique flow supported on the chosen cells, or None if infeasible.

    The chosen cells must form a forest over rows+columns; the flow on a
    forest is forced, found by repeatedly settling a degree-1 node. Any
    leftover edges (a cycle) or unbalanced node kills the candidate.
    """
    need = list(supply) + list(demand)
    incident = {node: set() for node in range(m + k)}
    for i, j in chosen:
        incident[i].add((i, j))
        incident[m + j].add((i, j))
    active = set(chosen)
    flows = {}
    while True:
        leaf = next((v for v in range(m + k) if len(incident[v]) == 1), None)
        if leaf is None:
            break
        (i, j) = next(iter(incident[leaf]))
        f = need[leaf]
        if f < 0:
            return None
        other = m + j if leaf == i else i
        need[leaf] = 0
        need[other] -= f
        incident[i].discard((i, j))
        incident[m + j].discard((i, j))
        active.discard((i, j))
        flows[(i, j)] = f
    if active or any(v != 0 for v in need):
        return None
    return flows


def brute_transport(costs, supply, demand):
    """Exact min-cost transport by exhaustive search over polytope vertices.

    Every vertex of the transportation polytope puts its mass on at most
    m+k-1 cells whose bipartite graph is a forest, so trying every cell
    subset of that size and solving each forced flow visits every vertex.
    supply/demand are small equal-total integer vectors; costs is a dense
    integer matrix. Only usable for tiny supports (4x4 is ~11k subsets).
    """
    m, k = len(supply), len(demand)
    basis_size = min(m + k - 1, m * k)
    best = None
    for chosen in itertools.combinations(
        [(i, j) for i in range(m) for j in range(k)], basis_size
    ):
        flow = _solve_basis_flow(chosen, supply, demand, m, k)
        if flow is None:
            continue
        cost = sum(f * costs[i][j] for (i, j), f in flow.items())
        if best is None or cost < best:
            best = cost
    return best


def _northwest_corner(a: np.ndarray, b: np.ndarray):
    """Initial basic feasible flow; returns (flow, basis cells in build order)."""
    m, n = len(a), len(b)
    flow = np.zeros((m, n), dtype=np.int64)
    ra, rb = a.copy(), b.copy()
    basis: list[tuple[int, int]] = []
    i = j = 0
    while True:
        f = min(ra[i], rb[j])
        flow[i, j] = f
        basis.append((i, j))
        ra[i] -= f
        rb[j] -= f
        if i == m - 1 and j == n - 1:
            break
        if ra[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1
    return flow, basis


def _potentials(m: int, n: int, cost: np.ndarray, adj: dict):
    """Solve u_i + v_j = c_ij over the basis tree (nodes: rows 0..m-1, cols m..)."""
    u = np.zeros(m, dtype=np.int64)
    v = np.zeros(n, dtype=np.int64)
    seen = [False] * (m + n)
    stack = [0]
    seen[0] = True
    while stack:
        node = stack.pop()
        for nxt in adj[node]:
            if seen[nxt]:
                continue
            seen[nxt] = True
            if node < m:  # row -> col: v_j = c_ij - u_i
                v[nxt - m] = cost[node, nxt - m] - u[node]
            else:  # col -> row: u_i = c_ij - v_j
                u[nxt] = cost[nxt, node - m] - v[node - m]
            stack.append(nxt)
    return u, v


def _tree_path(adj: dict, start: int, goal: int) -> list[int]:
    """Unique path between two nodes of the basis tree (BFS with parents)."""
    parent = {start: -1}
    frontier = [start]
    while frontier:
        nxt_frontier = []
        for node in frontier:
            for nxt in adj[node]:
                if nxt in parent:
                    continue
                parent[nxt] = node
                if nxt == goal:
                    path = [nxt]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    return path[::-1]
                nxt_frontier.append(nxt)
        frontier = nxt_frontier
    raise AssertionError("basis graph is not a spanning tree")


def bland_transport(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact transportation simplex on integer supplies/costs: a north-west
    corner start, Bland's rule at every pivot, all potentials and the cycle
    recomputed from scratch each time. Slow but simple; the reference for
    the network simplex in coastrank.transport."""
    m, n = cost.shape
    flow, basis_list = _northwest_corner(a, b)
    basis = set(basis_list)
    adj: dict[int, set[int]] = {k: set() for k in range(m + n)}
    for i, j in basis:
        adj[i].add(m + j)
        adj[m + j].add(i)

    while True:
        u, v = _potentials(m, n, cost, adj)
        rc = cost - u[:, None] - v[None, :]
        neg = np.flatnonzero((rc < 0).ravel())
        if neg.size == 0:
            return flow
        enter = int(neg[0])  # Bland: smallest row-major index, no cycling
        ei, ej = divmod(enter, n)

        node_path = _tree_path(adj, ei, m + ej)
        cells = []
        for x, y in zip(node_path, node_path[1:]):
            cells.append((x, y - m) if x < m else (y, x - m))
        # entering cell gets +theta; path cells alternate -,+,- ... from ei
        minus = cells[0::2]
        plus = [(ei, ej)] + cells[1::2]
        theta = min(int(flow[c]) for c in minus)
        leave = min(c for c in minus if flow[c] == theta)
        for c in plus:
            flow[c] += theta
        for c in minus:
            flow[c] -= theta
        basis.discard(leave)
        basis.add((ei, ej))
        adj[leave[0]].discard(m + leave[1])
        adj[m + leave[1]].discard(leave[0])
        adj[ei].add(m + ej)
        adj[m + ej].add(ei)


def subtree_transport(cost: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Network simplex over a plain basis tree, the reference for the leaf
    bookkeeping of coastrank.transport._solve_transport.

    Same start, pricing and leaving rule, so it returns the same
    (flow, pivots, bland_pivots); but every node carries parent, depth and an
    explicit potential, and each pivot re-hangs the whole subtree it cuts
    off, leaves included. The graph has row nodes 0..m-1 and column nodes
    m..m+n-1, and flow[i, j] lives on basic cells only.
    """
    m, n = cost.shape
    # start: rows sorted stably by their nearest column, then the north-west
    # corner; close to the coupling that ships every point to its cell median
    order = np.argsort(np.argmin(cost, axis=1), kind="stable").tolist()
    flow: dict[tuple[int, int], int] = {}
    ra, rb = a.tolist(), b.tolist()
    r = c = 0
    while True:
        i = order[r]
        f = min(ra[i], rb[c])
        flow[i, c] = f
        ra[i] -= f
        rb[c] -= f
        if r == m - 1 and c == n - 1:
            break
        if ra[i] == 0 and r < m - 1:
            r += 1
        else:
            c += 1

    adj: list[list[int]] = [[] for _ in range(m + n)]
    for i, j in flow:
        adj[i].append(m + j)
        adj[m + j].append(i)
    parent = [-1] * (m + n)
    depth = [0] * (m + n)

    def hang(s: int, t: int) -> list[int]:
        """Hang s, and everything reachable from it away from t, below t."""
        parent[s] = t
        depth[s] = depth[t] + 1
        nodes = [s]
        for x in nodes:
            px, dx = parent[x], depth[x] + 1
            for y in adj[x]:
                if y != px:
                    parent[y] = x
                    depth[y] = dx
                    nodes.append(y)
        return nodes

    def cell(x: int) -> tuple[int, int]:
        """The basic cell joining node x to its parent."""
        p = parent[x]
        return (x, p - m) if x < m else (p, x - m)

    depth[0] = -1
    tree = hang(0, 0)
    parent[0] = -1
    # potentials: u_i = pot[i], v_j = pot[m + j], with u_i + v_j = c_ij on basic cells
    pot = np.zeros(m + n, dtype=np.int64)
    for x in tree[1:]:
        pot[x] = cost[cell(x)] - pot[parent[x]]
    side = np.where(np.arange(m + n) < m, 1, -1)

    pivots = bland = stall = 0
    while True:
        rc = cost - pot[:m, None] - pot[None, m:]
        if stall < _DEGENERATE_RUN:
            enter = int(rc.argmin())  # Dantzig: most negative reduced cost
            if rc.flat[enter] >= 0:
                break
        else:
            neg = np.flatnonzero(rc < 0)  # Bland: first negative cell, row-major
            if neg.size == 0:
                break
            enter = int(neg[0])
            bland += 1
        ei, ej = divmod(enter, n)
        delta = int(rc.flat[enter])

        # the cycle: both endpoints climb to their common ancestor; along each
        # climb the flow change alternates -theta, +theta, ... from the endpoint
        x, y = ei, m + ej
        up_x: list[int] = []
        up_y: list[int] = []
        while x != y:
            if depth[x] >= depth[y]:
                up_x.append(x)
                x = parent[x]
            else:
                up_y.append(y)
                y = parent[y]
        # the leaving arc: least flow among the -theta cells, ties to the
        # smallest cell in row-major order
        lu = min(up_x[::2] + up_y[::2], key=lambda u: (flow[cell(u)], cell(u)))
        theta = flow[cell(lu)]
        if theta:
            for up in (up_x, up_y):
                for k, u in enumerate(up):
                    flow[cell(u)] += theta if k % 2 else -theta
        flow[ei, ej] = theta

        lp = parent[lu]
        del flow[cell(lu)]
        adj[lu].remove(lp)
        adj[lp].remove(lu)
        adj[ei].append(m + ej)
        adj[m + ej].append(ei)
        # the subtree the leaving arc cuts off holds one end s of the entering
        # arc; it is re-hung there and its potentials shift by the entering
        # reduced cost (+ on nodes of s's kind, - on the other kind)
        s, t = (ei, m + ej) if lu in up_x else (m + ej, ei)
        moved = np.array(hang(s, t))
        pot[moved] += delta * side[moved] * side[s]
        pivots += 1
        stall = stall + 1 if theta == 0 else 0

    out = np.zeros((m, n), dtype=np.int64)
    for (i, j), f in flow.items():
        out[i, j] = f
    return out, pivots, bland


def brute_wasserstein(p: DiscreteRankingDistribution, q: DiscreteRankingDistribution) -> float:
    """Exact Kendall-cost transport value via rational scaling + enumeration."""
    wp = [Fraction(float(w)).limit_denominator(10**6) for w in p.weights]
    wq = [Fraction(float(w)).limit_denominator(10**6) for w in q.weights]
    denom = 1
    for f in wp + wq:
        denom = denom * f.denominator // _gcd(denom, f.denominator)
    supply = [int(f * denom) for f in wp]
    demand = [int(f * denom) for f in wq]
    costs = [[naive_kendall(a, b) for b in q.support] for a in p.support]
    return brute_transport(costs, supply, demand) / denom


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def pl_pmf(worths, perm: Permutation) -> float:
    """Sequential-choice probability of one ranking, straight from the law."""
    remaining = list(range(len(worths)))
    prob = 1.0
    for item in perm.ordering():
        prob *= worths[item] / sum(worths[j] for j in remaining)
        remaining.remove(item)
    return prob


def l2_distance(p: DiscreteRankingDistribution, q: DiscreteRankingDistribution) -> float:
    """Euclidean distance between the two probability vectors on the union support."""
    if p.n != q.n:
        raise DimensionMismatchError("l2_distance: distributions over different n")
    diff: dict[tuple[int, ...], float] = {}
    for perm, w in zip(p.support, p.weights):
        diff[perm.ranks] = diff.get(perm.ranks, 0.0) + float(w)
    for perm, w in zip(q.support, q.weights):
        diff[perm.ranks] = diff.get(perm.ranks, 0.0) - float(w)
    return math.sqrt(sum(d * d for d in diff.values()))


def plan_to_csv(plan, path) -> None:
    """Write a transport plan's nonzero flows as (source index, target index, mass, unit cost)."""
    def bits(ranks):
        return np.array([Permutation(r).comparison_bits() for r in ranks.tolist()], dtype=np.uint8)

    d = hamming_cross(bits(plan.rows), bits(plan.cols))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["source", "target", "mass", "unit_cost"])
        for a, b in zip(*np.nonzero(plan.flow > 0)):
            w.writerow([int(a), int(b), "%.12g" % plan.flow[a, b], int(d[a, b])])


@dataclass(frozen=True, eq=False)
class LocalStats:
    """Per-cell empirical summary of a sample."""

    cell: Cell
    count: int
    marginals: PairwiseMatrix
    v_hat: float


def local_stats(s: RankingSample, c: Cell) -> LocalStats:
    """Count, pairwise marginals, and variability of the sample inside a cell.

    Empty cells report neutral marginals (all 1/2) and zero variability.
    """
    mask = c.membership_mask(s)
    idx = np.flatnonzero(mask)
    marg = PairwiseMatrix.from_comparisons(s.n, comparison_matrix(s.ranks_matrix)[mask])
    return LocalStats(cell=c, count=int(idx.size), marginals=marg, v_hat=brute_v_hat(s, idx))


def load_rankings_by_rows(path, format="ordering", delimiter=None):
    """A ranking file read one row at a time: (rank tuples, labels or None).

    The reference for ``load_rankings``: the same values and labels, or a
    RankingParseError with the same text and row number.
    """
    raw = Path(path).read_bytes()
    if raw.startswith(b"\xef\xbb\xbf"):
        raw = raw[3:]
    # undecodable bytes become lone surrogates, which no line break matches
    lines = raw.decode("utf-8", errors="surrogateescape").splitlines()
    for no, line in enumerate(lines):
        bad = [ch for ch in line if "\udc80" <= ch <= "\udcff"]
        if bad:
            raise RankingParseError(
                f"invalid UTF-8 byte {ord(bad[0]) - 0xDC00:#04x}", row=no + 1
            )
    rows = [(no + 1, ln.strip()) for no, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise RankingParseError(f"{path}: no ranking rows found")

    def split(line):
        d = delimiter if delimiter is not None else ("," if "," in line else "whitespace")
        return line.split() if d == "whitespace" else [t.strip() for t in line.split(d)]

    def is_int(token):
        try:
            int(token)
        except ValueError:
            return False
        return True

    head = split(rows[0][1])
    has_header = not all(is_int(t) for t in head)
    labeled = has_header and head[-1].strip().lower() == "label"
    data = rows[1:] if has_header else rows
    if not data:
        raise RankingParseError(f"{path}: no ranking rows after the header")
    ranks, labels, n = [], [], None
    for row_no, line in data:
        tokens = split(line)
        if labeled:
            if len(tokens) < 2:
                raise RankingParseError("labeled row needs at least 2 fields", row=row_no)
            labels.append(tokens.pop())
        for t in tokens:
            if not is_int(t):
                raise RankingParseError(f"non-integer field {t!r}", row=row_no)
        vals = [int(t) for t in tokens]
        n = len(vals) if n is None else n
        if len(vals) != n:
            raise RankingParseError(f"expected {n} ranking fields, found {len(vals)}", row=row_no)
        if sorted(vals) != list(range(1, n + 1)):
            raise RankingParseError(f"fields {vals} are not a permutation of 1..{n}", row=row_no)
        if format == "ordering":
            ranks.append(tuple(vals.index(item + 1) for item in range(n)))
        else:
            ranks.append(tuple(v - 1 for v in vals))
    if not labeled:
        return ranks, None
    try:
        return ranks, tuple(int(v) for v in labels)
    except ValueError:
        return ranks, tuple(labels)
