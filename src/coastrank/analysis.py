"""Statistics on fitted trees: depths, anomalies, smoothing, and tests.

Everything here is read-only over the tree and the samples. Depth values are
always computed against empirical conditionals of an explicit fit sample, so
queries that route into regions the fit never visited still get well-defined
(minimal) depths.
"""

from __future__ import annotations

import csv
import io
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
    _sequential_sum,
    inverse_rows,
    num_pairs,
    pair_list,
    symmetric_group,
)
from .tree import CoastTree

# --- local depth and anomaly scoring ---------------------------------------------


@dataclass(frozen=True)
class DepthTable:
    """Depths of the query rows, one array per column: ``local_depth`` in the leaf
    ``cell`` (the query's own, or ddplot's reference leaf), ``global_depth``
    against the whole fit sample, and the query labels (or None)."""

    index: np.ndarray
    local_depth: np.ndarray
    global_depth: np.ndarray
    cell: np.ndarray
    labels: tuple | None = None

    def __len__(self) -> int:
        return len(self.index)


#: Query rows per float64 block: the bytes of a 1024-row float32 Gram chunk.
_QUERY_ROWS = 512


def _check_same_n(tree: CoastTree, *samples: RankingSample) -> None:
    for s in samples:
        if s.n != tree.n:
            raise DimensionMismatchError("sample and tree cover different item counts")


def _depth_table(
    tree: CoastTree, s_fit: RankingSample, s_query: RankingSample, reference=None
) -> DepthTable:
    """Depths in each query's own leaf, or all in the ``reference`` leaf.

    The summed Kendall distance from q to the m rows of a leaf with column
    counts cnt is sum(cnt) + q @ (m - 2 cnt): per pair, the rows that disagree
    with q. The weight table's last row is the whole fit sample, so one float64
    product per query block gives every local and global sum, exactly: every
    term is an integer below 2**53. A leaf with no fit rows gives depth 0.
    """
    _check_same_n(tree, s_fit, s_query)
    if reference is not None and reference not in tree.frontier:
        raise RejectedInputError(f"cell {reference} is not a leaf of the tree")
    _, sizes, cnt = tree.leaf_counts(s_fit)
    sizes = np.append(sizes, sizes.sum())
    cnt = np.vstack([cnt, cnt.sum(axis=0)])
    weights = (sizes[:, None] - 2 * cnt).T.astype(np.float64)
    base = cnt.sum(axis=1).astype(np.float64)
    cell = tree.route_sample(s_query) if reference is None else np.full(s_query.size, reference)
    col = np.searchsorted(tree.frontier, cell)
    qx = s_query.comparisons
    local, global_ = np.empty(len(qx)), np.empty(len(qx))
    for start in range(0, len(qx), _QUERY_ROWS):
        stop = min(start + _QUERY_ROWS, len(qx))
        dist = qx[start:stop].astype(np.float64) @ weights + base
        local[start:stop] = dist[np.arange(stop - start), col[start:stop]]
        global_[start:stop] = dist[:, -1]
    top = float(num_pairs(tree.n))

    def depth(total, m):
        return np.where(m > 0, top - total / np.maximum(m, 1), 0.0)

    return DepthTable(
        index=np.arange(s_query.size),
        local_depth=depth(local, sizes[col]),
        global_depth=depth(global_, sizes[-1]),
        cell=cell,
        labels=s_query.labels,
    )


def local_depths(
    tree: CoastTree, s_fit: RankingSample, s_query: RankingSample
) -> DepthTable:
    """Depth of each query within its own leaf's empirical fit conditional.

    A query routed to a leaf holding no fit points gets local depth 0 (nothing
    nearby was ever observed, the most anomalous reading).
    """
    return _depth_table(tree, s_fit, s_query)


def anomaly_scores(
    tree: CoastTree, s_fit: RankingSample, s_query: RankingSample
) -> np.ndarray:
    """Negated local depth: higher means more anomalous."""
    return -local_depths(tree, s_fit, s_query).local_depth


def ddplot_table(
    tree: CoastTree,
    s_fit: RankingSample,
    s_query: RankingSample,
    reference_cell: int,
) -> DepthTable:
    """Depth table with the local axis fixed to one reference leaf.

    Every query's local depth is taken against the reference cell's fit
    conditional (whether or not the query routes there), which is what makes
    the per-cluster point clouds comparable in a depth-vs-depth plot.
    """
    return _depth_table(tree, s_fit, s_query, reference_cell)


#: Rows formatted per join by the depth and anomaly CSV writers.
_CSV_ROWS = 4096


def _write_rows(path, header: str, line: str, columns, labels) -> None:
    """Rows ``line % (*columns, label)``, byte for byte as csv.writer writes them.

    ``line`` formats the numbers ("%.12g" as every CLI output) and ends in
    "\r\n"; csv.writer quotes each distinct (hashable) label once. Each
    block of rows is one join.
    """
    buf, quoted = io.StringIO(), {}
    writer = csv.writer(buf)

    def field(v) -> str:
        if (type(v), v) not in quoted:
            buf.seek(0)
            buf.truncate()
            writer.writerow([v, ""])  # None as blank; drop ",\r\n"
            quoted[type(v), v] = buf.getvalue()[:-3]
        return quoted[type(v), v]

    fields = [""] * len(columns[0]) if labels is None else [field(v) for v in labels]
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for start in range(0, len(fields), _CSV_ROWS):
            block = [c[start : start + _CSV_ROWS].tolist() for c in columns]
            fh.write("".join(map(line.__mod__, zip(*block, fields[start : start + _CSV_ROWS]))))


def depth_table_to_csv(table: DepthTable, path) -> None:
    _write_rows(path, "index,local_depth,global_depth,cell,label", "%d,%.12g,%.12g,%d,%s\r\n",
                [table.index, table.local_depth, table.global_depth, table.cell], table.labels)


def anomaly_table_to_csv(table: DepthTable, path) -> None:
    _write_rows(path, "index,anomaly_score,cell,label", "%d,%.12g,%d,%s\r\n",
                [table.index, -table.local_depth, table.cell], table.labels)


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
        _, cmp = symmetric_group(n)
        mask = cell.comparison_mask(cmp)
        return PairwiseMatrix.from_counts(n, cmp[mask].sum(axis=0), int(mask.sum()))
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


@dataclass(frozen=True, eq=False)
class SmoothedCellDistribution:
    """Concordance-scored distribution over a cell.

    members holds the cell's rank rows in lexicographic order and scores their
    unnormalized scores (both empty when the cell is too large to enumerate);
    z is the normalizer in force for the chosen method; z_factorized records
    the closed-form normalizer whenever the cell shape admits it, for comparison.
    """

    cell: Cell
    members: np.ndarray
    scores: np.ndarray
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
        """{one-based ranks -> probability} over the enumerated members, in their order."""
        if not len(self.scores):
            raise RejectedInputError("no enumerated scores to export")
        if not self.z > 0:  # one item: no pairs, so every score and z are 0
            raise RejectedInputError(f"normalizer z = {self.z!r}: no probabilities to export")
        # each rank from a table of one-based strings, its separator included;
        # every key is one line of a single join
        n = self.members.shape[1]
        ones = range(1, n + 1)
        fields = np.array([f"{k}," for k in ones] + [f"{k}\n" for k in ones], dtype=object)
        cells = fields[self.members + np.repeat([0, n], [n - 1, 1])]
        keys = "".join(cells.ravel().tolist()).split("\n")[:-1]
        return dict(zip(keys, (self.scores / self.z).tolist()))


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
    marg = PairwiseMatrix.from_counts(
        s.n, s.comparisons[mask].sum(axis=0, dtype=np.int64), int(mask.sum())
    )

    z_factorized = None
    if _item_disjoint(cell.constraints):
        uniform = uniform_cell_marginals(cell, SmoothMethod.FACTORIZED)
        z_factorized = float(
            sum(
                marg.p[a, b] * (1.0 - uniform.p[a, b])
                for a, b in pair_list(cell.n)
            )
        )

    members, scores = np.empty((0, cell.n), dtype=np.uint8), np.empty(0)
    if cell.n <= ENUMERATION_LIMIT:
        ranks, cmp = symmetric_group(cell.n)
        members = ranks[cell.comparison_mask(cmp)]
        order = inverse_rows(members)
        # one position pair at a time, in the order a Python sum over the
        # pairs would add them, so every score is that sum to the last bit
        scores = np.zeros(len(members))
        for i, j in itertools.combinations(range(cell.n), 2):
            scores = scores + marg.p[order[:, i], order[:, j]]

    if method is SmoothMethod.ENUMERATION:
        if cell.n > ENUMERATION_LIMIT:
            raise CapacityError(
                f"smoothing by enumeration needs n <= {ENUMERATION_LIMIT}"
            )
        z = _sequential_sum(scores)
    else:
        if z_factorized is None:
            raise RejectedInputError(
                "factorized smoothing needs item-disjoint constraint pairs"
            )
        z = z_factorized
    return SmoothedCellDistribution(
        cell=cell,
        members=members,
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
