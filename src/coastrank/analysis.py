"""Statistics on fitted trees: depths, anomalies, smoothing, and tests.

Everything here is read-only over the tree and the samples. Depth values are
always computed against empirical conditionals of an explicit fit sample, so
queries that route into regions the fit never visited still get well-defined
(minimal) depths.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cells import Cell
from .errors import (
    CapacityError,
    DimensionMismatchError,
    EnumerationLimitError,
    RejectedInputError,
)
from .perms import (
    ENUMERATION_LIMIT,
    DiscreteRankingDistribution,
    PairwiseMatrix,
    Permutation,
    RankingSample,
    num_pairs,
    pair_list,
    pairwise_marginals,
)
from .tree import CoastTree

# --- local depth and anomaly scoring ---------------------------------------------


@dataclass(frozen=True)
class DepthRecord:
    """Depth of one query ranking, locally (in its cell) and globally."""

    index: int
    local_depth: float
    global_depth: float
    cell_id: int
    label: object = None


def _mean_depths(qx: np.ndarray, fx: np.ndarray, max_depth: float) -> np.ndarray:
    """Depth of each query row against the uniform mixture of the fit rows.

    The summed Kendall distance from a query q to N fit rows with column
    counts cnt is sum(cnt) + q @ (N - 2 cnt): per pair, the fit rows that
    disagree with q. Exact in int64, and no Q x N matrix is formed.
    """
    m = fx.shape[0]
    if m == 0:
        return np.zeros(qx.shape[0])
    cnt = fx.sum(axis=0, dtype=np.int64)
    total = int(cnt.sum()) + qx.astype(np.int64) @ (m - 2 * cnt)
    return max_depth - total / m


def _check_same_n(tree: CoastTree, *samples: RankingSample) -> None:
    for s in samples:
        if s.n != tree.n:
            raise DimensionMismatchError("sample and tree cover different item counts")


def local_depths(
    tree: CoastTree, s_fit: RankingSample, s_query: RankingSample
) -> list[DepthRecord]:
    """Depth of each query within its own leaf's empirical fit conditional.

    A query routed to a leaf holding no fit points gets local depth 0 (nothing
    nearby was ever observed, the most anomalous reading).
    """
    _check_same_n(tree, s_fit, s_query)
    top = float(num_pairs(tree.n))
    qx, fx = s_query.comparisons, s_fit.comparisons
    q_routes = tree.route_sample(s_query)
    f_routes = tree.route_sample(s_fit)
    global_depth = _mean_depths(qx, fx, top)
    local_depth = np.zeros(s_query.size)
    for nid in tree.frontier:
        q_idx = np.flatnonzero(q_routes == nid)
        if q_idx.size == 0:
            continue
        f_idx = np.flatnonzero(f_routes == nid)
        local_depth[q_idx] = _mean_depths(qx[q_idx], fx[f_idx], top)
    labels = s_query.labels
    return [
        DepthRecord(
            index=i,
            local_depth=float(local_depth[i]),
            global_depth=float(global_depth[i]),
            cell_id=int(q_routes[i]),
            label=None if labels is None else labels[i],
        )
        for i in range(s_query.size)
    ]


def anomaly_scores(
    tree: CoastTree, s_fit: RankingSample, s_query: RankingSample
) -> np.ndarray:
    """Negated local depth: higher means more anomalous."""
    records = local_depths(tree, s_fit, s_query)
    return np.array([-r.local_depth for r in records])


def ddplot_table(
    tree: CoastTree,
    s_fit: RankingSample,
    s_query: RankingSample,
    reference_cell: int,
) -> list[DepthRecord]:
    """Depth records with the local axis fixed to one reference leaf.

    Every query's local depth is taken against the reference cell's fit
    conditional (whether or not the query routes there), which is what makes
    the per-cluster point clouds comparable in a depth-vs-depth plot.
    """
    _check_same_n(tree, s_fit, s_query)
    if reference_cell not in set(tree.frontier):
        raise RejectedInputError(f"cell {reference_cell} is not a leaf of the tree")
    top = float(num_pairs(tree.n))
    qx, fx = s_query.comparisons, s_fit.comparisons
    f_idx = np.flatnonzero(tree.route_sample(s_fit) == reference_cell)
    local = _mean_depths(qx, fx[f_idx], top)
    global_depth = _mean_depths(qx, fx, top)
    labels = s_query.labels
    return [
        DepthRecord(
            index=i,
            local_depth=float(local[i]),
            global_depth=float(global_depth[i]),
            cell_id=int(reference_cell),
            label=None if labels is None else labels[i],
        )
        for i in range(s_query.size)
    ]


def depth_records_to_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "local_depth", "global_depth", "cell", "label"])
        for r in records:
            w.writerow(
                [
                    r.index,
                    "%.12g" % r.local_depth,
                    "%.12g" % r.global_depth,
                    r.cell_id,
                    "" if r.label is None else r.label,
                ]
            )


# --- co-membership ----------------------------------------------------------------


def co_membership(tree: CoastTree, s: RankingSample) -> np.ndarray:
    """Boolean matrix: entry (k, l) is True iff rows k and l share a leaf."""
    _check_same_n(tree, s)
    routes = tree.route_sample(s)
    return routes[:, None] == routes[None, :]


def co_membership_to_csv(matrix: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["index"] + [str(j) for j in range(matrix.shape[1])])
        for i, row in enumerate(matrix):
            w.writerow([i] + [int(v) for v in row])


# --- smoothing --------------------------------------------------------------------


class SmoothMethod(str, Enum):
    ENUMERATION = "enumeration"
    FACTORIZED = "factorized"


def _as_smooth_method(method) -> SmoothMethod:
    try:
        return SmoothMethod(method)
    except ValueError:
        raise RejectedInputError(
            f"unknown smoothing method {method!r}; "
            f"expected one of {[m.value for m in SmoothMethod]}"
        ) from None


def _item_disjoint(constraints) -> bool:
    seen: set[int] = set()
    for a, b in constraints:
        if a in seen or b in seen:
            return False
        seen.update((a, b))
    return True


def _factorized_entry(i: int, j: int, a: int, b: int) -> float:
    """Closed-form per-constraint entry P(a before b | i before j).

    The 1/3 row for a=i is kept verbatim even though direct enumeration gives
    2/3 there; the divergence is surfaced by uniform_marginal_discrepancy, not
    patched over. Entries for pairs written with the constrained item second
    are the complements, which keeps every produced matrix self-consistent.
    """
    if (a, b) == (i, j):
        return 1.0
    if (a, b) == (j, i):
        return 0.0
    if a == i:
        return 1.0 / 3.0
    if b == j:
        return 2.0 / 3.0
    if b == i:
        return 2.0 / 3.0
    if a == j:
        return 1.0 / 3.0
    return 0.5


def uniform_cell_marginals(cell: Cell, method="enumeration") -> PairwiseMatrix:
    """Pairwise marginals of the uniform distribution over a cell.

    ENUMERATION is the ground truth (n within the enumeration limit).
    FACTORIZED applies the per-constraint entry table and needs the cell's
    constraint pairs to be item-disjoint; pairs touched by two constraints
    multiply their entries.
    """
    method = _as_smooth_method(method)
    n = cell.n
    if method is SmoothMethod.ENUMERATION:
        if n > ENUMERATION_LIMIT:
            raise CapacityError(
                f"uniform_cell_marginals enumeration needs n <= {ENUMERATION_LIMIT}"
            )
        members = list(cell.enumerate_members())
        ranks = np.array([p.ranks for p in members], dtype=np.int64)
        p = np.full((n, n), 0.5)
        for a, b in pair_list(n):
            val = float((ranks[:, a] < ranks[:, b]).mean())
            p[a, b] = val
            p[b, a] = 1.0 - val
        return PairwiseMatrix(n, p)
    if not _item_disjoint(cell.constraints):
        raise RejectedInputError(
            "factorized marginals need item-disjoint constraint pairs"
        )
    p = np.full((n, n), 0.5)
    for a, b in pair_list(n):
        val = 1.0
        touched = False
        for i, j in sorted(cell.constraints):
            if {i, j} & {a, b}:
                val *= _factorized_entry(i, j, a, b)
                touched = True
        if not touched:
            val = 0.5
        p[a, b] = val
        p[b, a] = 1.0 - val
    return PairwiseMatrix(n, p)


def uniform_marginal_discrepancy(cell: Cell) -> list[dict]:
    """Side-by-side uniform-cell marginals from both routes, one row per pair.

    The enumeration column is authoritative; the factorized column is the
    closed-form table taken at its word. Rows where they disagree are
    flagged, never reconciled.
    """
    enum_m = uniform_cell_marginals(cell, SmoothMethod.ENUMERATION)
    fact_m = uniform_cell_marginals(cell, SmoothMethod.FACTORIZED)
    rows = []
    for a, b in pair_list(cell.n):
        e, f = enum_m.entry(a, b), fact_m.entry(a, b)
        rows.append(
            {
                "item_a": a + 1,
                "item_b": b + 1,
                "enumeration": e,
                "factorized": f,
                "abs_diff": abs(e - f),
                "diverges": abs(e - f) > 1e-9,
            }
        )
    return rows


def discrepancy_to_csv(rows, path) -> None:
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


@dataclass(frozen=True)
class SmoothedCellDistribution:
    """Concordance-scored distribution over a cell.

    scores maps cell members to unnormalized scores (empty when the cell was
    too large to enumerate); z is the normalizer actually in force for the
    chosen method; z_factorized records the closed-form normalizer whenever
    the cell shape admits it, for comparison rather than use.
    """

    cell: Cell
    scores: dict
    z: float
    method: SmoothMethod
    z_factorized: float | None
    marginals: PairwiseMatrix

    def score_of(self, sigma: Permutation) -> float:
        """Unnormalized score: summed concordance mass over rank positions."""
        if sigma.n != self.cell.n:
            raise DimensionMismatchError("score_of: size mismatch")
        o = sigma.ordering()
        p = self.marginals.p
        return float(
            sum(p[o[i], o[j]] for i, j in itertools.combinations(range(len(o)), 2))
        )

    def prob_of(self, sigma: Permutation) -> float:
        return self.score_of(sigma) / self.z

    def to_json_obj(self) -> dict:
        """{one-based ranks -> probability} over the enumerated members."""
        if not self.scores:
            raise RejectedInputError("no enumerated scores to export")
        return {
            ",".join(str(v) for v in perm.to_one_based()): self.scores[perm] / self.z
            for perm in sorted(self.scores, key=lambda q: q.ranks)
        }


def smooth_cell(
    s: RankingSample, cell: Cell, method="enumeration"
) -> SmoothedCellDistribution:
    """Smooth the sample's conditional on a cell via pairwise concordance.

    A ranking's score adds, over all pairs of rank positions, the local
    marginal probability that the item it puts earlier does come earlier.
    ENUMERATION normalizes by summing scores over the whole cell; FACTORIZED
    normalizes by the closed-form cross-variability formula instead.
    """
    method = _as_smooth_method(method)
    if s.n != cell.n:
        raise DimensionMismatchError("sample and cell cover different item counts")
    mask = cell.membership_mask(s)
    if not mask.any():
        raise RejectedInputError("cell contains no sample points to smooth")
    marg = pairwise_marginals(s.subset(np.flatnonzero(mask)))

    z_factorized = None
    if _item_disjoint(cell.constraints):
        uniform = uniform_cell_marginals(cell, SmoothMethod.FACTORIZED)
        z_factorized = float(
            sum(
                marg.p[a, b] * (1.0 - uniform.p[a, b])
                for a, b in pair_list(cell.n)
            )
        )

    scores: dict[Permutation, float] = {}
    if cell.n <= ENUMERATION_LIMIT:
        o_pairs = list(itertools.combinations(range(cell.n), 2))
        for perm in cell.enumerate_members():
            o = perm.ordering()
            scores[perm] = float(sum(marg.p[o[i], o[j]] for i, j in o_pairs))

    if method is SmoothMethod.ENUMERATION:
        if cell.n > ENUMERATION_LIMIT:
            raise CapacityError(
                f"smoothing by enumeration needs n <= {ENUMERATION_LIMIT}"
            )
        z = float(sum(scores.values()))
    else:
        if z_factorized is None:
            raise RejectedInputError(
                "factorized smoothing needs item-disjoint constraint pairs"
            )
        z = z_factorized
    return SmoothedCellDistribution(
        cell=cell,
        scores=scores,
        z=z,
        method=method,
        z_factorized=z_factorized,
        marginals=marg,
    )


# --- homogeneity testing ------------------------------------------------------------


@dataclass(frozen=True)
class HomogeneityResult:
    """Two-sided rank-sum comparison of two depth samples."""

    u_statistic: float
    p_value: float
    z: float | None
    method: str


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def homogeneity_test(depths_a, depths_b, method: str = "normal") -> HomogeneityResult:
    """Mann-Whitney rank-sum test that two depth samples share a distribution.

    The normal route uses mid-ranks, the tie-corrected variance, and a
    continuity correction. The exact route enumerates every group assignment
    (combined size at most 20) and is the oracle for the approximation.
    Degenerate pooled data (every value identical) yields p = 1.
    """
    a = np.asarray(list(depths_a), dtype=np.float64)
    b = np.asarray(list(depths_b), dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise RejectedInputError("homogeneity_test needs two nonempty samples")
    na, nb = a.size, b.size
    pooled = np.concatenate([a, b])
    ranks = _midranks(pooled)
    u = float(ranks[:na].sum() - na * (na + 1) / 2.0)
    mu = na * nb / 2.0

    if method == "exact":
        total = na + nb
        if total > 20:
            raise CapacityError("exact homogeneity test limited to 20 combined values")
        shift = na * (na + 1) / 2.0
        dev = abs(u - mu) - 1e-12
        hits = 0
        count = 0
        for combo in itertools.combinations(range(total), na):
            u_star = ranks[list(combo)].sum() - shift
            count += 1
            if abs(u_star - mu) >= dev:
                hits += 1
        return HomogeneityResult(
            u_statistic=u, p_value=hits / count, z=None, method="exact"
        )
    if method != "normal":
        raise RejectedInputError(f"unknown method {method!r}; use 'normal' or 'exact'")

    total = na + nb
    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = float((tie_counts.astype(np.float64) ** 3 - tie_counts).sum())
    var = na * nb / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
    if var <= 0:
        return HomogeneityResult(u_statistic=u, p_value=1.0, z=0.0, method="normal")
    delta = u - mu
    z = 0.0 if delta == 0 else (delta - 0.5 * math.copysign(1.0, delta)) / math.sqrt(var)
    p = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
    return HomogeneityResult(u_statistic=u, p_value=p, z=z, method="normal")


# --- chain factorization --------------------------------------------------------------


def chain_pmf(source, sigma: Permutation) -> float:
    """Mass of sigma rebuilt as a chain of conditional pairwise agreements.

    Walks the lexicographic pair order; each factor is the probability of
    agreeing with sigma on that pair given agreement on all earlier pairs.
    The product telescopes to the plain mass of sigma, which is the point:
    local pairwise marginals characterize the distribution.
    """
    dist = (
        DiscreteRankingDistribution.empirical(source)
        if isinstance(source, RankingSample)
        else source
    )
    if dist.n > ENUMERATION_LIMIT:
        raise EnumerationLimitError(f"chain_pmf: n={dist.n} exceeds {ENUMERATION_LIMIT}")
    if sigma.n != dist.n:
        raise DimensionMismatchError("chain_pmf: size mismatch")
    x = dist.support_comparisons
    qbits = sigma.comparison_bits()
    active = np.ones(dist.size, dtype=bool)
    prob = 1.0
    for c in range(x.shape[1]):
        agree = x[:, c] == qbits[c]
        num = float(dist.weights[active & agree].sum())
        den = float(dist.weights[active].sum())
        if num <= 0.0:
            # a zero factor can only appear for a zero-mass target
            assert dist.prob_of(sigma) == 0.0
            return 0.0
        prob *= num / den
        active &= agree
    return prob
