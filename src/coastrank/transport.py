"""Exact optimal transport between ranking distributions under Kendall-tau cost.

The solver is a network simplex run entirely in integer arithmetic: weights
are lifted to a common denominator (two sides that carry integer counts are
taken as they are) and costs are Kendall distances (integers). It starts from
a north-west-corner plan over the source rows in an order the caller may give,
by default sorted by their nearest target atom; the distortion evaluator
sorts each row by its own cell's atom, which makes the start exactly the
coupling that ships every point to its cell median. It prices by Dantzig's
rule (most negative reduced cost) and falls back to Bland's rule after a run
of degenerate pivots, so it cannot cycle. At most k - 1 rows of a k-column
basis carry two or more basic arcs, and likewise for columns; every other
node is a leaf of the basis tree, with all its mass on one arc. A leaf keeps
only its home (the node at the other end of that arc) and that arc's cost,
and its potential is filled in from its home's by one numpy gather at every
pricing. Only branch nodes, those with two or more arcs, carry parent/depth
links and explicit potentials, so a pivot re-hangs and shifts just the branch
nodes of the subtree it moves. The optimum it returns is exact, which the
distortion diagnostics rely on — they certify inequalities, not
approximations. When the weights' common denominator would overflow int64
they are rounded first, and the result is marked inexact.

The distortion evaluator takes a whole sequence of partitions, such as a
pruning path, and computes each distinct cell's mass, dispersions and exact
risk once, however many steps share the cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cells import Cell, tile_owners
from .consensus import dispersion_v, dispersion_v_prime, exact_kemeny
from .errors import (
    CapacityError,
    DimensionMismatchError,
    EnumerationLimitError,
    RejectedInputError,
)
from .perms import DiscreteRankingDistribution, PairwiseMatrix, hamming_cross

SOLVER_LIMIT = 2000
#: Slack allowed when distortion_report checks its inequalities.
_TOL = 1e-9
_WEIGHT_DENOMINATOR_CAP = 10**7


@dataclass(frozen=True)
class TransportPlan:
    """An explicit coupling between two supports.

    flow[a, b] is the mass moved from rows[a] to cols[b], rows of the two
    supports' rank arrays; cost is the total transported Kendall distance.
    Row sums reproduce the source weights and column sums the target weights.
    exact is False when the weights had to be rounded to a 1e9 denominator
    before solving. pivots and bland_pivots count the solver's basis changes,
    the second those priced by Bland's rule.
    """

    rows: np.ndarray
    cols: np.ndarray
    flow: np.ndarray
    cost: float
    exact: bool = True
    pivots: int = field(default=0, compare=False)
    bland_pivots: int = field(default=0, compare=False)

    def __post_init__(self):
        f = np.asarray(self.flow, dtype=np.float64)
        object.__setattr__(self, "flow", f)
        if f.shape != (len(self.rows), len(self.cols)):
            raise DimensionMismatchError("flow shape does not match supports")
        if np.any(f < -1e-12):
            raise RejectedInputError("negative transported mass")


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

    Returns (a, b, denom, exact). Two sides that carry integer counts are
    taken as they are, each scaled to the least common multiple of the two
    totals. Otherwise weights that are genuinely rational reconstruct exactly,
    each distinct weight value converted to a fraction once, and exact is
    True. If their least common denominator would overflow the integer
    pipeline, both sides are rounded to the denominator 1e9 instead and exact
    is False; the induced error is below one part in 1e9 of the total mass.
    """
    if p.counts is not None and q.counts is not None:
        tp, tq = int(p.counts.sum()), int(q.counts.sum())
        denom = math.lcm(tp, tq)
        if denom <= _DENOMINATOR_OVERFLOW_GUARD:
            return p.counts * (denom // tp), q.counts * (denom // tq), denom, True

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


def _solve_transport(cost: np.ndarray, a: np.ndarray, b: np.ndarray, order=None):
    """Exact network simplex on integer supplies a, demands b and costs.

    The start is the north-west corner over the rows taken in ``order`` (by
    default, sorted stably by their nearest column). Returns (flow, pivots,
    bland_pivots). The graph has row nodes 0..m-1 and
    column nodes m..m+n-1, and flow[i, j] lives on basic cells only. The
    basis is a spanning tree rooted at node 0. A leaf (a node with one basic
    arc, other than the root) keeps only its home, the node at the other end
    of that arc; its potential is read off its home's at every pricing. Branch
    nodes (the rest) carry parent, depth, branch-neighbour lists and an
    explicit potential, so a pivot re-hangs branch nodes only.
    """
    m, n = cost.shape
    size = m + n
    # start: the north-west corner over the rows in order. The corner walks a
    # staircase: after cell (r, j) it steps down when rows 0..r hold no more
    # than columns 0..j take (rows first on ties), so its cells and flows
    # follow from the two running totals
    if order is None:
        order = np.argsort(np.argmin(cost, axis=1), kind="stable")
    sa = np.concatenate(([0], np.cumsum(a[order])))
    sb = np.concatenate(([0], np.cumsum(b)))
    down = np.argsort(np.concatenate((sa[1:-1], sb[1:-1])), kind="stable") < m - 1
    r = np.concatenate(([0], np.cumsum(down)))  # per basic cell: its place in order
    j = np.concatenate(([0], np.cumsum(~down)))  # and its column
    rows, cols = order[r], j + m
    f = np.minimum(sa[r + 1], sb[j + 1]) - np.maximum(sa[r], sb[j])
    flow: dict[tuple[int, int], int] = dict(zip(zip(rows.tolist(), j.tolist()), f.tolist()))

    deg = np.bincount(rows, minlength=size) + np.bincount(cols, minlength=size)
    leafmask = deg == 1
    leafmask[0] = False  # the root counts as a branch node whatever its degree
    lr, lc = leafmask[rows], leafmask[cols]
    home = np.full(size, m)  # a leaf's home; pricing skips branch nodes' entries
    home[rows[lr]] = cols[lr]
    home[cols[lc]] = rows[lc]
    hcost = np.zeros(size, dtype=np.int64)  # the cost of a leaf's one arc
    arc_cost = cost[rows, j]
    hcost[rows[lr]] = arc_cost[lr]
    hcost[cols[lc]] = arc_cost[lc]
    badj: list[list[int]] = [[] for _ in range(size)]  # branch neighbours of branch nodes
    both = ~(lr | lc)
    for x, y in zip(rows[both].tolist(), cols[both].tolist()):
        badj[x].append(y)
        badj[y].append(x)
    deg, leaf = deg.tolist(), leafmask.tolist()
    parent = home.tolist()  # a leaf's parent is its home
    depth = [0] * size  # branch nodes only

    def cell(x: int) -> tuple[int, int]:
        """The basic cell joining node x to its parent."""
        p = parent[x]
        return (x, p - m) if x < m else (p, x - m)

    # potentials: u_i = pot[i], v_j = pot[m + j], with u_i + v_j = c_ij on
    # basic cells; pot holds them for branch nodes, and pot[0] = 0 throughout
    pot = np.zeros(size, dtype=np.int64)
    parent[0] = -1
    tree = [0]
    for x in tree:
        for y in badj[x]:
            if y != parent[x]:
                parent[y] = x
                depth[y] = depth[x] + 1
                pot[y] = cost[cell(y)] - pot[x]
                tree.append(y)
    side = np.where(np.arange(size) < m, 1, -1)

    def make_leaf(z: int, h: int) -> None:
        """Record z as a leaf whose one arc runs to h."""
        leaf[z] = leafmask[z] = True
        parent[z] = home[z] = h
        hcost[z] = cost[cell(z)]

    def drop_branch(z: int, h: int) -> None:
        """Turn branch node z, left with its one arc to h, into a leaf."""
        for w in badj[z]:
            badj[w].remove(z)
        badj[z] = []
        make_leaf(z, h)

    pivots = bland = stall = 0
    while True:
        # leaf potentials from their homes'; pot then holds every node's
        np.subtract(hcost, pot[home], out=pot, where=leafmask)
        rc = cost - pot[:m, None]
        rc -= pot[None, m:]
        if stall < _DEGENERATE_RUN:
            enter = int(rc.argmin())  # Dantzig: most negative reduced cost
            delta = int(rc.flat[enter])
            if delta >= 0:
                break
        else:
            neg = np.flatnonzero(rc < 0)  # Bland: first negative cell, row-major
            if neg.size == 0:
                break
            enter = int(neg[0])
            delta = int(rc.flat[enter])
            bland += 1
        ei, ej = divmod(enter, n)

        # the cycle: both endpoints climb to their common ancestor, a leaf
        # endpoint first stepping to its home; along each climb the flow
        # change alternates -theta, +theta, ... from the endpoint
        x, y = ei, m + ej
        up_x = [x] if leaf[x] else []
        up_y = [y] if leaf[y] else []
        if up_x:
            x = parent[x]
        if up_y:
            y = parent[y]
        while x != y:
            if depth[x] >= depth[y]:
                up_x.append(x)
                x = parent[x]
            else:
                up_y.append(y)
                y = parent[y]
        # the leaving arc: least flow among the -theta cells, ties to the
        # smallest cell in row-major order
        minus = up_x[::2] + up_y[::2]
        cells = [cell(u) for u in minus]
        theta, leaving, lu = min(zip([flow[c] for c in cells], cells, minus))
        if theta:
            for c in cells:
                flow[c] -= theta
            for u in up_x[1::2] + up_y[1::2]:
                flow[cell(u)] += theta
        flow[ei, ej] = theta
        del flow[leaving]

        # the subtree the leaving arc cuts off holds one end s of the entering
        # arc; t is the other end
        lp = parent[lu]
        s, t = (ei, m + ej) if lu in up_x else (m + ej, ei)
        if not leaf[lu]:
            badj[lu].remove(lp)
            badj[lp].remove(lu)
        deg[lu] -= 1
        deg[lp] -= 1
        deg[s] += 1
        deg[t] += 1
        # a branch node left with one arc becomes a leaf: lp keeps the arc to
        # its parent, lu the arc to its one child (s, if that was a leaf)...
        if deg[lu] == 1 and not leaf[lu]:
            drop_branch(lu, badj[lu][0] if badj[lu] else s)
        if deg[lp] == 1 and lp:
            drop_branch(lp, parent[lp])
        # ...and a leaf that gained the entering arc a branch node, linked to
        # its old home; its potential is the one it was priced with
        for z in (s, t):
            if leaf[z] and deg[z] == 2:
                h = parent[z]
                leaf[z] = leafmask[z] = False
                depth[z] = depth[h] + 1
                if not leaf[h]:
                    badj[z].append(h)
                    badj[h].append(z)
        if leaf[s]:  # s was a leaf cut off alone: it only changes home
            make_leaf(s, t)
        else:
            # re-hang the branch part of the cut-off subtree below t; its
            # potentials shift by the entering reduced cost (+ on nodes of
            # s's kind, - on the other kind), and its leaves follow their homes
            badj[s].append(t)
            badj[t].append(s)
            parent[s] = t
            depth[s] = depth[t] + 1
            moved = [s]
            for x in moved:
                px, dx = parent[x], depth[x] + 1
                for y in badj[x]:
                    if y != px:
                        parent[y] = x
                        depth[y] = dx
                        moved.append(y)
            mv = np.array(moved)
            pot[mv] += side[mv] * (delta if s < m else -delta)
        pivots += 1
        stall = stall + 1 if theta == 0 else 0

    out = np.zeros((m, n), dtype=np.int64)
    basic = np.array(list(flow)).reshape(-1, 2)
    out[basic[:, 0], basic[:, 1]] = list(flow.values())
    return out, pivots, bland


def wasserstein(
    p: DiscreteRankingDistribution,
    q: DiscreteRankingDistribution,
    solver_limit: int = SOLVER_LIMIT,
    start: np.ndarray | None = None,
) -> tuple[float, TransportPlan]:
    """Exact minimum-cost coupling of two ranking distributions.

    The cost of moving mass between two rankings is their Kendall distance;
    the returned value is the true optimum (weights are handled as rationals
    and the pivoting is integer-exact), together with an optimal plan. When
    the weights' common denominator is too large for int64 they are rounded
    to multiples of 1e-9 first; the plan then says so with ``exact=False``.

    ``start``, if given, names a support index of q for each support point of
    p: the solver's north-west-corner start takes p's points sorted stably by
    it, so a point's mass goes to its start atom wherever the atoms' masses
    allow. By default each point starts on its nearest atom.
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
    kept = cost[np.ix_(keep_a, keep_b)]
    order = None if start is None else np.argsort(np.asarray(start)[keep_a], kind="stable")
    sub, pivots, bland = _solve_transport(kept, a[keep_a], b[keep_b], order)
    total = int((sub * kept).sum())
    flow[np.ix_(keep_a, keep_b)] = sub / denom
    value = float(Fraction(total, denom))
    plan = TransportPlan(rows=p.ranks, cols=q.ranks, flow=flow, cost=value, exact=exact,
                         pivots=pivots, bland_pivots=bland)
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
    asserted. pivots and bland_pivots are the transport solver's counts (None
    when w is None); they describe the solve, not the partition, and take no
    part in comparisons.
    """

    w: float | None
    e: float | None
    e_prime: float
    e_dprime: float
    w_le_e: bool | None
    e_le_two_e_prime: bool | None
    e_le_e_dprime: bool | None
    w_exact: bool | None = None
    pivots: int | None = field(default=None, compare=False)
    bland_pivots: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class _CellStats:
    """A cell's share of a distortion report, from the source points it holds."""

    mask: np.ndarray  # the source's support points in the cell
    mass: float
    count: int | None  # the points' integer count, when the source carries counts
    e_prime: float  # dispersion_v_prime of the cell's conditional marginals
    e_dprime: float  # dispersion_v of them
    risk: float | None  # their exact Kemeny risk; None beyond the enumeration limit


def _cell_stats(dist: DiscreteRankingDistribution, cell: Cell) -> _CellStats:
    """The statistics of the cell's conditional distribution under dist."""
    if cell.n != dist.n:
        raise DimensionMismatchError("cell over wrong item count")
    x, weights = dist.support_comparisons, dist.weights
    mask = cell.rank_mask(dist.ranks)
    mass = float(weights[mask].sum())
    count = None if dist.counts is None else int(dist.counts[mask].sum())
    if mass <= 0.0:  # a massless cell adds no atom, so its statistics are never read
        return _CellStats(mask, mass, count, 0.0, 0.0, 0.0)
    # the cell's conditional marginals, from its support points' comparison rows
    marg = PairwiseMatrix.from_comparisons(dist.n, x[mask], weights[mask] / mass)
    try:
        risk = exact_kemeny(marg).risk
    except EnumerationLimitError:
        risk = None
    return _CellStats(mask, mass, count, dispersion_v_prime(marg), dispersion_v(marg), risk)


def distortion_reports(
    dist: DiscreteRankingDistribution,
    steps,
    solver_limit: int = SOLVER_LIMIT,
) -> list[DistortionReport]:
    """Evaluate a sequence of consensus summaries against one source distribution.

    ``steps`` holds (cells, medians) pairs, such as the frontiers of a
    pruning sequence. Each support point must fall in exactly one cell of
    every step. Cell masses and conditionals come from the distribution
    itself, computed once per distinct cell however many steps share it; the
    consensus atoms come from the supplied medians, and the transport term
    from the exact solver (w is None when either support exceeds
    ``solver_limit``), started from the coupling that ships each point to its
    own cell's median.
    """
    memo: dict[Cell, _CellStats] = {}
    reports = []
    for cells, medians in steps:
        cells = list(cells)
        medians = list(medians)
        if len(cells) == 0 or len(cells) != len(medians):
            raise RejectedInputError("need one median per cell")
        for med in medians:
            if med.n != dist.n:
                raise DimensionMismatchError("median over wrong item count")
        stats = []
        for cell in cells:
            if cell not in memo:
                memo[cell] = _cell_stats(dist, cell)
            stats.append(memo[cell])
        owners = tile_owners([st.mask for st in stats])

        e: float | None = 0.0
        e_prime = 0.0
        e_dprime = 0.0
        live = [ci for ci, st in enumerate(stats) if st.mass > 0.0]
        for ci in live:
            st = stats[ci]
            e_prime += st.mass * st.e_prime
            e_dprime += st.mass * st.e_dprime
            if e is not None:
                e = None if st.risk is None else e + st.mass * st.risk
        crd_dist = DiscreteRankingDistribution.from_pairs(
            [(medians[ci], stats[ci].mass) for ci in live],
            None if dist.counts is None else [stats[ci].count for ci in live],
        )
        # a massless cell's points carry no supply, so its start atom does not matter
        atom_of = np.zeros(len(medians), dtype=np.intp)
        for ci in live:
            atom_of[ci] = (crd_dist.ranks == medians[ci].ranks).all(axis=1).argmax()
        try:
            w, plan = wasserstein(dist, crd_dist, solver_limit, start=atom_of[owners])
            w_exact, pivots, bland = plan.exact, plan.pivots, plan.bland_pivots
        except CapacityError:
            w = w_exact = pivots = bland = None
        reports.append(DistortionReport(
            w=w,
            e=e,
            e_prime=e_prime,
            e_dprime=e_dprime,
            w_le_e=None if w is None or e is None else w <= e + _TOL,
            e_le_two_e_prime=None if e is None else e <= 2.0 * e_prime + _TOL,
            e_le_e_dprime=None if e is None else e <= e_dprime + _TOL,
            w_exact=w_exact,
            pivots=pivots,
            bland_pivots=bland,
        ))
    return reports


def distortion_report(
    dist: DiscreteRankingDistribution,
    cells,
    medians,
    solver_limit: int = SOLVER_LIMIT,
) -> DistortionReport:
    """Evaluate one consensus summary (cells, medians) against the source.

    The one-step case of distortion_reports.
    """
    return distortion_reports(dist, [(cells, medians)], solver_limit)[0]
