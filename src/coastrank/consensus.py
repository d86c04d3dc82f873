"""Consensus rankings: transitivity checks, medians, dispersion measures.

All routes to a median are kept separate on purpose: exact enumeration is
the oracle, Copeland is the closed form available under strict stochastic
transitivity, and depth climbing is the general-purpose local search.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import RejectedInputError, TransitivityError
from .perms import (
    DiscreteRankingDistribution,
    PairwiseMatrix,
    Permutation,
    _sequential_sum,
    pair_indices,
    risk_from_marginals,
    symmetric_group,
)


class SstKind(str, Enum):
    STRICT = "STRICT"
    WEAK = "WEAK"
    NOT_TRANSITIVE = "NOT_TRANSITIVE"


@dataclass(frozen=True)
class SstStatus:
    """Stochastic-transitivity classification of a pairwise matrix."""

    kind: SstKind
    margin: float
    witness: tuple[int, int, int] | None = None  # present iff NOT_TRANSITIVE
    tied_pair: tuple[int, int] | None = None  # a pair with p exactly 1/2, if any


def sst_status(m: PairwiseMatrix, tie_tol: float = 0.0) -> SstStatus:
    """Classify m as strictly/weakly stochastically transitive or neither.

    Weak transitivity: p[i,j] >= 1/2 and p[j,k] >= 1/2 imply p[i,k] >= 1/2
    for all triples of distinct items. Strict additionally requires no
    off-diagonal entry equal to 1/2 (within tie_tol).
    """
    p = m.p
    n = m.n
    ge = p >= 0.5 - tie_tol
    distinct = ~np.eye(n, dtype=bool)
    # viol[i,j,k] for distinct i,j,k with i>=j, j>=k but not i>=k
    viol = ge[:, :, None] & ge[None, :, :] & ~ge[:, None, :]
    viol &= distinct[:, :, None] & distinct[None, :, :] & distinct[:, None, :]
    off = np.abs(p - 0.5) <= tie_tol
    np.fill_diagonal(off, False)
    ties = np.argwhere(off)
    tied_pair = tuple(int(x) for x in ties[0]) if ties.size else None
    margin = m.margin()
    if np.any(viol):
        i, j, k = np.argwhere(viol)[0]
        return SstStatus(SstKind.NOT_TRANSITIVE, margin, witness=(int(i), int(j), int(k)),
                         tied_pair=tied_pair)
    if tied_pair is not None:
        return SstStatus(SstKind.WEAK, margin, tied_pair=tied_pair)
    return SstStatus(SstKind.STRICT, margin)


@dataclass(frozen=True)
class MedianResult:
    """Median ranking(s) with the achieved risk and the producing method."""

    medians: tuple[Permutation, ...]
    risk: float
    method: str

    @property
    def median(self) -> Permutation:
        """The lexicographically smallest median (single-ranking callers)."""
        return self.medians[0]


def copeland_median(m: PairwiseMatrix) -> Permutation:
    """Rank items by their number of pairwise losses.

    Requires a strictly stochastically transitive matrix; under strict SST
    the loss counts are distinct and give the unique Kemeny median.
    """
    status = sst_status(m)
    if status.kind is not SstKind.STRICT:
        raise TransitivityError(
            f"copeland_median needs strict stochastic transitivity, got {status.kind.value}",
            witness=status.witness,
            tied_pair=status.tied_pair,
        )
    losses = (m.p < 0.5).sum(axis=1)
    ranks = tuple(int(x) for x in losses)
    return Permutation(ranks)


#: Rows of the S_n table scored per matrix product in exact_kemeny.
_KEMENY_CHUNK = 50000


@lru_cache(maxsize=1)
def _float_group(n: int) -> np.ndarray:
    """symmetric_group(n)'s comparison rows as float64: 847 KB at n = 7."""
    table = symmetric_group(n)[1].astype(np.float64)
    table.setflags(write=False)
    return table


def exact_kemeny(d: DiscreteRankingDistribution | PairwiseMatrix) -> MedianResult:
    """Exhaustive Kemeny median set over the whole symmetric group.

    Takes a distribution or its pairwise marginals: risks are computed
    through the pairwise decomposition of the Kendall distance. Up to
    EXACT_N_LIMIT the float64 S_n table is cached (it is one chunk); above
    it the cached boolean table is cast one 50000-row chunk at a time.
    """
    n = d.n
    ranks, cmp = symmetric_group(n)
    m = d if isinstance(d, PairwiseMatrix) else d.marginals()
    upper = m.p[pair_indices(n)]
    base = float(upper.sum())
    coef = 1.0 - 2.0 * upper
    if n <= EXACT_N_LIMIT:
        chunks = [_float_group(n)]
    else:
        chunks = (cmp[k : k + _KEMENY_CHUNK].astype(np.float64)
                  for k in range(0, len(cmp), _KEMENY_CHUNK))
    risks = np.concatenate([c @ coef + base for c in chunks])
    best = float(risks.min())
    medians = tuple(
        Permutation._trusted(r) for r in ranks[np.flatnonzero(risks <= best + 1e-9)].tolist()
    )
    return MedianResult(medians=medians, risk=best, method="exact")


def dispersion_v(m: PairwiseMatrix) -> float:
    """Sum over pairs of min(p, 1-p).

    Lower-bounds the optimal ranking risk (every ranking pays at least the
    minority mass on each pair); attained exactly under strict transitivity.
    """
    i, j = pair_indices(m.n)
    return _sequential_sum(np.minimum(m.p[i, j], m.p[j, i]))


def dispersion_v_prime(m: PairwiseMatrix) -> float:
    """Sum over pairs of p(1-p): half the expected distance of two draws."""
    i, j = pair_indices(m.n)
    return _sequential_sum(m.p[i, j] * m.p[j, i])


#: A swap changes the risk by 2 p[a, b] - 1; the climb takes it only below -_CLIMB_TOL.
_CLIMB_TOL = 1e-15


def _forced_endpoint(m: PairwiseMatrix) -> Permutation | None:
    """The one ranking every climb ends at, if the climb's stopping rule forces it.

    A climb stops where every adjacent pair (a, b) may stay, that is
    2 p[a, b] - 1 >= -_CLIMB_TOL. When each item pair allows exactly one
    order and the win counts are distinct, the relation is a linear order,
    and its only Hamiltonian path is the order by win count. Ties within
    the tolerance, or a cycle, return None.
    """
    n = m.n
    stay = 2.0 * m.p - 1.0 >= -_CLIMB_TOL
    np.fill_diagonal(stay, False)
    if np.count_nonzero(stay ^ stay.T) != n * (n - 1):
        return None
    wins = stay.sum(axis=1)
    if np.count_nonzero(np.bincount(wins, minlength=n)) != n:
        return None
    return Permutation._trusted((n - 1 - wins).tolist())


def _climb_rows(m: PairwiseMatrix) -> list[list[float]]:
    """m.p as nested lists with a sentinel item n whose swaps cost +inf.

    A climb pads its order with the sentinel at both ends, so every swap
    has a neighbor on either side.
    """
    inf = float("inf")
    rows = [row + [inf] for row in m.p.tolist()]
    rows.append([inf] * (m.n + 1))
    return rows


def _climb(rows: list[list[float]], start: Permutation) -> Permutation:
    """Greedy adjacent-transposition ascent in depth (descent in risk).

    ``rows`` comes from _climb_rows. Each step makes the adjacent swap that
    lowers the risk most; ties go to the first such position. A swap at r
    changes only the risk changes of swaps r - 1, r and r + 1, so only
    those are recomputed.
    """
    end = len(rows) - 1  # the sentinel item
    order = [end, *start.ordering(), end]
    delta = [2.0 * rows[a][b] - 1.0 for a, b in zip(order, order[1:])]  # risk change of each swap
    while True:
        best = min(delta)
        if not best < -_CLIMB_TOL:
            break
        r = delta.index(best)
        a, b = order[r + 1], order[r]
        order[r], order[r + 1] = a, b
        delta[r - 1] = 2.0 * rows[order[r - 1]][a] - 1.0
        delta[r] = 2.0 * rows[a][b] - 1.0
        delta[r + 1] = 2.0 * rows[b][order[r + 2]] - 1.0
    return Permutation.from_ordering(order[1:-1])


def depth_climb_median(
    m: PairwiseMatrix, restarts: int = 8, rng: np.random.Generator | None = None
) -> MedianResult:
    """Local search for a deep ranking: hill-climb over adjacent swaps.

    From each random start, repeatedly move to the neighboring ranking with
    the largest depth under the marginals m until no neighbor improves. Best
    endpoint over restarts wins; exact ties go to the lexicographically
    smallest. When the endpoint is forced (see _forced_endpoint) it is
    returned without climbing, though the starts are still drawn from rng.
    """
    if restarts < 1:
        raise RejectedInputError("restarts must be >= 1")
    rng = np.random.default_rng(0) if rng is None else rng
    forced = _forced_endpoint(m)
    if forced is not None:
        for _ in range(restarts):
            rng.permutation(m.n)
        return MedianResult(
            medians=(forced,), risk=risk_from_marginals(m, forced), method="depth_climb"
        )
    rows = _climb_rows(m)
    best: Permutation | None = None
    best_risk = np.inf
    for _ in range(restarts):
        end = _climb(rows, Permutation._trusted(rng.permutation(m.n).tolist()))
        r = risk_from_marginals(m, end)
        if r < best_risk - 1e-12 or (
            abs(r - best_risk) <= 1e-12 and (best is None or end.ranks < best.ranks)
        ):
            best, best_risk = end, r
    return MedianResult(medians=(best,), risk=float(best_risk), method="depth_climb")


#: Names accepted for aggregation strategies.
AGGREGATOR_KINDS = ("auto", "exact", "copeland", "depth-climb")

#: Largest n for which 'auto' enumerates S_n for an exact median.
EXACT_N_LIMIT = 7

#: Random starts per depth-climbing median.
CLIMB_RESTARTS = 8


def make_aggregator(kind: str = "auto", seed: int = 0):
    """Build the per-cell consensus routine used by tree growth.

    The routine maps a cell's pairwise marginals and its node id to a median.
    auto: exact enumeration when n <= EXACT_N_LIMIT, else Copeland when the
    marginals are strictly SST, else depth climbing. The explicit 'copeland'
    choice also falls back to depth climbing on ties/cycles rather than
    failing mid-fit.
    """
    if kind not in AGGREGATOR_KINDS:
        raise RejectedInputError(f"unknown aggregator {kind!r}; pick from {AGGREGATOR_KINDS}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise RejectedInputError(f"seed must be a non-negative integer, got {seed!r}")

    def aggregate(m: PairwiseMatrix, node_id: int = 0) -> Permutation:
        if kind == "exact" or (kind == "auto" and m.n <= EXACT_N_LIMIT):
            return exact_kemeny(m).median
        if kind in ("copeland", "auto") and sst_status(m).kind is SstKind.STRICT:
            return copeland_median(m)
        rng = np.random.default_rng([seed, node_id])
        return depth_climb_median(m, restarts=CLIMB_RESTARTS, rng=rng).median

    return aggregate
