"""Exact optimal transport between ranking distributions under Kendall-tau cost.

The solver is a network simplex run entirely in integer arithmetic: weights
are lifted to a common denominator and costs are Kendall distances (integers).
It starts from a north-west-corner plan over the source rows sorted by their
nearest target atom, prices by Dantzig's rule (most negative reduced cost) and
falls back to Bland's rule after a run of degenerate pivots, so it cannot
cycle. The basis tree is kept as parent/depth arrays, and each pivot updates
potentials only on the subtree it moves. The optimum it returns is exact,
which the distortion diagnostics rely on — they certify inequalities, not
approximations. When the weights' common denominator would overflow int64
they are rounded first, and the result is marked inexact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cells import cell_owners
from .consensus import dispersion_v, dispersion_v_prime, exact_kemeny
from .errors import (
    CapacityError,
    DimensionMismatchError,
    EnumerationLimitError,
    RejectedInputError,
)
from .perms import DiscreteRankingDistribution, PairwiseMatrix, Permutation, hamming_cross

SOLVER_LIMIT = 2000
#: Slack allowed when distortion_report checks its inequalities.
_TOL = 1e-9
_WEIGHT_DENOMINATOR_CAP = 10**7


@dataclass(frozen=True)
class TransportPlan:
    """An explicit coupling between two supports.

    flow[a, b] is the mass moved from rows[a] to cols[b]; cost is the total
    transported Kendall distance. Row sums reproduce the source weights and
    column sums the target weights. exact is False when the weights had to be
    rounded to a 1e9 denominator before solving.
    """

    rows: tuple[Permutation, ...]
    cols: tuple[Permutation, ...]
    flow: np.ndarray
    cost: float
    exact: bool = True

    def __post_init__(self):
        f = np.asarray(self.flow, dtype=np.float64)
        object.__setattr__(self, "flow", f)
        if f.shape != (len(self.rows), len(self.cols)):
            raise DimensionMismatchError("flow shape does not match supports")
        if np.any(f < -1e-12):
            raise RejectedInputError("negative transported mass")

    def row_sums(self) -> np.ndarray:
        return self.flow.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        return self.flow.sum(axis=0)


_DENOMINATOR_OVERFLOW_GUARD = 10**12  # keeps flows and costs inside int64


def _quantize(weights: np.ndarray, denom: int) -> np.ndarray:
    """Integer weights summing exactly to denom (largest-remainder rounding)."""
    scaled = np.asarray(weights, dtype=np.float64) * denom
    base = np.floor(scaled).astype(np.int64)
    short = denom - int(base.sum())
    order = np.argsort(-(scaled - base), kind="stable")
    base[order[:short]] += 1
    return base


def _integer_weights(p: DiscreteRankingDistribution, q: DiscreteRankingDistribution):
    """Lift both weight vectors to integers over one shared denominator.

    Returns (a, b, denom, exact). Weights that are genuinely rational
    (empirical counts, consensus atom masses) reconstruct exactly and exact is
    True. If their least common denominator would overflow the integer
    pipeline, both sides are rounded to the denominator 1e9 instead and exact
    is False; the induced error is below one part in 1e9 of the total mass.
    Each distinct weight value is converted once.
    """

    def rationals(weights: np.ndarray):
        """Distinct weight values as fractions renormalized to sum 1, with the inverse index."""
        vals, inv, counts = np.unique(weights, return_inverse=True, return_counts=True)
        fr = [Fraction(float(w)).limit_denominator(_WEIGHT_DENOMINATOR_CAP) for w in vals]
        total = sum(f * int(k) for f, k in zip(fr, counts))
        if total <= 0:
            raise RejectedInputError("weights must carry positive total mass")
        return [f / total for f in fr], inv  # exact renormalization

    fa, ia = rationals(p.weights)
    fb, ib = rationals(q.weights)
    denom = 1
    for f in fa + fb:
        denom = denom * f.denominator // math.gcd(denom, f.denominator)
        if denom > _DENOMINATOR_OVERFLOW_GUARD:
            denom = 10**9
            return _quantize(p.weights, denom), _quantize(q.weights, denom), denom, False
    a = np.array([int(f * denom) for f in fa], dtype=np.int64)[ia]
    b = np.array([int(f * denom) for f in fb], dtype=np.int64)[ib]
    return a, b, denom, True


#: Consecutive degenerate pivots (no flow moved) after which pricing
#: switches from Dantzig's rule to Bland's, which cannot cycle.
_DEGENERATE_RUN = 16


def _solve_transport(cost: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Exact network simplex on integer supplies a, demands b and costs.

    Returns (flow, pivots, bland_pivots). The graph has row nodes 0..m-1 and
    column nodes m..m+n-1; the basis is a spanning tree kept as parent and
    depth lists plus adjacency, and flow[i, j] lives on basic cells only.
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


def wasserstein(
    p: DiscreteRankingDistribution,
    q: DiscreteRankingDistribution,
    solver_limit: int = SOLVER_LIMIT,
) -> tuple[float, TransportPlan]:
    """Exact minimum-cost coupling of two ranking distributions.

    The cost of moving mass between two rankings is their Kendall distance;
    the returned value is the true optimum (weights are handled as rationals
    and the pivoting is integer-exact), together with an optimal plan. When
    the weights' common denominator is too large for int64 they are rounded
    to multiples of 1e-9 first; the plan then says so with ``exact=False``.
    """
    if p.n != q.n:
        raise DimensionMismatchError("wasserstein: distributions over different n")
    if abs(float(p.weights.sum()) - float(q.weights.sum())) > 1e-9:
        raise RejectedInputError("wasserstein: weight totals differ")
    m1, m2 = p.size, q.size
    if m1 > solver_limit or m2 > solver_limit:
        raise CapacityError(
            f"support {m1}x{m2} exceeds solver limit {solver_limit}x{solver_limit}"
        )
    cost = hamming_cross(p.support_comparisons, q.support_comparisons).astype(np.int64)
    a, b, denom, exact = _integer_weights(p, q)
    keep_a, keep_b = np.flatnonzero(a > 0), np.flatnonzero(b > 0)
    flow = np.zeros((m1, m2), dtype=np.float64)
    sub, _, _ = _solve_transport(cost[np.ix_(keep_a, keep_b)], a[keep_a], b[keep_b])
    total = int((sub * cost[np.ix_(keep_a, keep_b)]).sum())
    flow[np.ix_(keep_a, keep_b)] = sub / denom
    value = float(Fraction(total, denom))
    plan = TransportPlan(rows=p.support, cols=q.support, flow=flow, cost=value, exact=exact)
    return value, plan


@dataclass(frozen=True)
class DistortionReport:
    """How much structure a cell partition loses, bounded from both sides.

    w        — transport distance from the distribution to its consensus atoms
               (None when the supports exceed the exact solver's limit)
    w_exact  — False when w was solved on weights rounded to a 1e9
               denominator (None when w is None)
    e        — mass-weighted optimal risk inside each cell (None beyond the
               exact-enumeration limit)
    e_prime  — mass-weighted sum-of-p(1-p) dispersion per cell
    e_dprime — mass-weighted sum-of-min(p,1-p) dispersion per cell

    The boolean fields record which of the advertised inequalities hold on
    this instance (None when a side is unavailable). w_le_e requires the supplied
    medians to be exact conditional medians; e_le_e_dprime can genuinely fail
    when a cell's conditional marginals are cyclic, so it is reported, not
    asserted.
    """

    w: float | None
    e: float | None
    e_prime: float
    e_dprime: float
    w_le_e: bool | None
    e_le_two_e_prime: bool | None
    e_le_e_dprime: bool | None
    w_exact: bool | None = None


def distortion_report(
    dist: DiscreteRankingDistribution,
    cells,
    medians,
    solver_limit: int = SOLVER_LIMIT,
) -> DistortionReport:
    """Evaluate the consensus summary (cells, medians) against the source.

    Each support point must fall in exactly one cell. Cell masses and
    conditionals come from the distribution itself, the consensus atoms from
    the supplied medians, and the transport term from the exact solver (w is
    None when either support exceeds ``solver_limit``).
    """
    cells = list(cells)
    medians = list(medians)
    if len(cells) == 0 or len(cells) != len(medians):
        raise RejectedInputError("need one median per cell")
    for med in medians:
        if med.n != dist.n:
            raise DimensionMismatchError("median over wrong item count")

    owners = cell_owners(dist.n, dist.support_comparisons, cells)
    x, weights = dist.support_comparisons, dist.weights
    e: float | None = 0.0
    e_prime = 0.0
    e_dprime = 0.0
    atoms = []
    for ci in range(len(cells)):
        mask = owners == ci
        mass = float(weights[mask].sum())
        if mass <= 0.0:
            continue
        atoms.append((medians[ci], mass))
        # the cell's conditional marginals, from its support points' comparison rows
        marg = PairwiseMatrix.from_comparisons(dist.n, x[mask], weights[mask] / mass)
        e_prime += mass * dispersion_v_prime(marg)
        e_dprime += mass * dispersion_v(marg)
        if e is not None:
            try:
                e += mass * exact_kemeny(marg).risk
            except EnumerationLimitError:
                e = None

    crd_dist = DiscreteRankingDistribution.from_pairs(atoms)
    try:
        w, plan = wasserstein(dist, crd_dist, solver_limit=solver_limit)
        w_exact = plan.exact
    except CapacityError:
        w = w_exact = None
    return DistortionReport(
        w=w,
        e=e,
        e_prime=e_prime,
        e_dprime=e_dprime,
        w_le_e=None if w is None or e is None else w <= e + _TOL,
        e_le_two_e_prime=None if e is None else e <= 2.0 * e_prime + _TOL,
        e_le_e_dprime=None if e is None else e <= e_dprime + _TOL,
        w_exact=w_exact,
    )
