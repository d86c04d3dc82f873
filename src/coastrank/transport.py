"""Exact optimal transport between ranking distributions under Kendall-tau cost.

The solver is a transportation simplex run entirely in integer arithmetic:
weights are lifted to a common denominator, costs are Kendall distances
(integers), and Bland's rule guards against cycling. The optimum it returns is
exact, which the distortion diagnostics rely on — they certify inequalities,
not approximations.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .consensus import dispersion_v, dispersion_v_prime, exact_kemeny
from .errors import (
    CapacityError,
    DimensionMismatchError,
    EnumerationLimitError,
    PartitionIntegrityError,
    RejectedInputError,
)
from .perms import DiscreteRankingDistribution, Permutation, hamming_cross

SOLVER_LIMIT = 2000
_WEIGHT_DENOMINATOR_CAP = 10**7


@dataclass(frozen=True)
class TransportPlan:
    """An explicit coupling between two supports.

    flow[a, b] is the mass moved from rows[a] to cols[b]; cost is the total
    transported Kendall distance. Row sums reproduce the source weights and
    column sums the target weights.
    """

    rows: tuple[Permutation, ...]
    cols: tuple[Permutation, ...]
    flow: np.ndarray
    cost: float

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

    def verify(
        self,
        source: DiscreteRankingDistribution,
        target: DiscreteRankingDistribution,
        tol: float = 1e-9,
    ) -> None:
        """Check the coupling invariants against the two endpoint marginals."""
        if self.rows != source.support or self.cols != target.support:
            raise RejectedInputError("plan supports do not match the distributions")
        if np.abs(self.row_sums() - source.weights).max() > tol:
            raise RejectedInputError("row sums do not reproduce source weights")
        if np.abs(self.col_sums() - target.weights).max() > tol:
            raise RejectedInputError("column sums do not reproduce target weights")
        d = hamming_cross(source.support_comparisons, target.support_comparisons)
        if abs(float((self.flow * d).sum()) - self.cost) > tol:
            raise RejectedInputError("stored cost disagrees with the flow")

    def to_csv(self, path) -> None:
        """Write the nonzero flows as (source index, target index, mass, unit cost)."""
        d = hamming_cross(
            np.array([p.comparison_bits() for p in self.rows], dtype=np.uint8),
            np.array([p.comparison_bits() for p in self.cols], dtype=np.uint8),
        )
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["source", "target", "mass", "unit_cost"])
            for a, b in zip(*np.nonzero(self.flow > 0)):
                w.writerow([int(a), int(b), "%.12g" % self.flow[a, b], int(d[a, b])])


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
    """Lift both weight vectors to exact integers over one shared denominator.

    Weights that are genuinely rational (empirical counts, consensus atom
    masses) reconstruct exactly. If their least common denominator would
    overflow the integer pipeline, fall back to fixed-denominator rounding —
    the induced error is below one part in 1e9 of the total mass.
    """
    fa = [Fraction(float(w)).limit_denominator(_WEIGHT_DENOMINATOR_CAP) for w in p.weights]
    fb = [Fraction(float(w)).limit_denominator(_WEIGHT_DENOMINATOR_CAP) for w in q.weights]
    sa, sb = sum(fa), sum(fb)
    if sa <= 0 or sb <= 0:
        raise RejectedInputError("weights must carry positive total mass")
    fa = [f / sa for f in fa]  # exact renormalization: both sides now sum to 1
    fb = [f / sb for f in fb]
    denom = 1
    for f in fa + fb:
        denom = denom * f.denominator // math.gcd(denom, f.denominator)
        if denom > _DENOMINATOR_OVERFLOW_GUARD:
            denom = 10**9
            return _quantize(p.weights, denom), _quantize(q.weights, denom), denom
    a = np.array([int(f * denom) for f in fa], dtype=np.int64)
    b = np.array([int(f * denom) for f in fb], dtype=np.int64)
    return a, b, denom


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


def _solve_transport(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact transportation simplex (Bland's rule) on integer supplies/costs."""
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


def wasserstein(
    p: DiscreteRankingDistribution,
    q: DiscreteRankingDistribution,
    solver_limit: int = SOLVER_LIMIT,
) -> tuple[float, TransportPlan]:
    """Exact minimum-cost coupling of two ranking distributions.

    The cost of moving mass between two rankings is their Kendall distance;
    the returned value is the true optimum (weights are handled as rationals
    and the pivoting is integer-exact), together with an optimal plan.
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
    a, b, denom = _integer_weights(p, q)
    keep_a, keep_b = np.flatnonzero(a > 0), np.flatnonzero(b > 0)
    flow = np.zeros((m1, m2), dtype=np.float64)
    sub = _solve_transport(cost[np.ix_(keep_a, keep_b)], a[keep_a], b[keep_b])
    total = int((sub * cost[np.ix_(keep_a, keep_b)]).sum())
    flow[np.ix_(keep_a, keep_b)] = sub / denom
    value = float(Fraction(total, denom))
    plan = TransportPlan(rows=p.support, cols=q.support, flow=flow, cost=value)
    return value, plan


def l2_distance(
    p: DiscreteRankingDistribution, q: DiscreteRankingDistribution
) -> float:
    """Euclidean distance between the two probability vectors on the union support."""
    if p.n != q.n:
        raise DimensionMismatchError("l2_distance: distributions over different n")
    diff: dict[tuple[int, ...], float] = {}
    for perm, w in zip(p.support, p.weights):
        diff[perm.ranks] = diff.get(perm.ranks, 0.0) + float(w)
    for perm, w in zip(q.support, q.weights):
        diff[perm.ranks] = diff.get(perm.ranks, 0.0) - float(w)
    return math.sqrt(sum(d * d for d in diff.values()))


@dataclass(frozen=True)
class DistortionReport:
    """How much structure a cell partition loses, bounded from both sides.

    w        — transport distance from the distribution to its consensus atoms
               (None when the supports exceed the exact solver's limit)
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


def distortion_report(
    dist: DiscreteRankingDistribution,
    cells,
    medians,
    solver_limit: int = SOLVER_LIMIT,
    tol: float = 1e-9,
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

    owners = np.full(dist.size, -1, dtype=np.int64)
    for ci, cell in enumerate(cells):
        if cell.n != dist.n:
            raise DimensionMismatchError("cell over wrong item count")
        for si, perm in enumerate(dist.support):
            if cell.contains(perm):
                if owners[si] >= 0:
                    raise PartitionIntegrityError(
                        f"support point {si} lies in cells {owners[si]} and {ci}"
                    )
                owners[si] = ci
    if np.any(owners < 0):
        missing = int(np.flatnonzero(owners < 0)[0])
        raise PartitionIntegrityError(f"support point {missing} lies in no cell")

    e: float | None = 0.0
    e_prime = 0.0
    e_dprime = 0.0
    atoms = []
    for ci in range(len(cells)):
        mass, cond = dist.condition(owners == ci)
        if cond is None:
            continue
        atoms.append((medians[ci], mass))
        marg = cond.marginals()
        e_prime += mass * dispersion_v_prime(marg)
        e_dprime += mass * dispersion_v(marg)
        if e is not None:
            try:
                e += mass * exact_kemeny(cond).risk
            except EnumerationLimitError:
                e = None

    crd_dist = DiscreteRankingDistribution.from_pairs(atoms)
    try:
        w, _ = wasserstein(dist, crd_dist, solver_limit=solver_limit)
    except CapacityError:
        w = None
    return DistortionReport(
        w=w,
        e=e,
        e_prime=e_prime,
        e_dprime=e_dprime,
        w_le_e=None if w is None or e is None else w <= e + tol,
        e_le_two_e_prime=None if e is None else e <= 2.0 * e_prime + tol,
        e_le_e_dprime=None if e is None else e <= e_dprime + tol,
    )
