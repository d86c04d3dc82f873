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

from coastrank.cells import Cell
from coastrank.errors import DimensionMismatchError, RankingParseError
from coastrank.perms import (
    DiscreteRankingDistribution,
    PairwiseMatrix,
    Permutation,
    RankingSample,
    hamming_cross,
    pair_list,
)


def gathered_comparison_matrix(ranks: np.ndarray) -> np.ndarray:
    """'i before j' bits from two (N, C(n,2)) gathers of the rank columns."""
    pairs = pair_list(ranks.shape[1])
    ii = np.fromiter((i for i, _ in pairs), dtype=np.int64)
    jj = np.fromiter((j for _, j in pairs), dtype=np.int64)
    return ranks[:, ii] < ranks[:, jj]


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


def brute_risk(dist: DiscreteRankingDistribution, sigma: Permutation) -> float:
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


def hamming_depths(qx: np.ndarray, fx: np.ndarray, max_depth: float) -> np.ndarray:
    """Depth of each query row from the full Q x N Hamming distance matrix."""
    if fx.shape[0] == 0:
        return np.zeros(qx.shape[0])
    dist = (qx[:, None, :] != fx[None, :, :]).sum(axis=2, dtype=np.int64)
    return max_depth - dist.mean(axis=1)


def brute_local_depths(tree, s_fit: RankingSample, s_query: RankingSample):
    """(local, global) depth arrays, routing every ranking one at a time."""
    top = float(tree.n * (tree.n - 1) // 2)
    qx, fx = s_query.comparisons, s_fit.comparisons
    q_leaf = [tree.route_one(p) for p in s_query.rankings]
    f_leaf = np.array([tree.route_one(p) for p in s_fit.rankings])
    local = np.array(
        [hamming_depths(qx[k : k + 1], fx[f_leaf == leaf], top)[0] for k, leaf in enumerate(q_leaf)]
    )
    return local, hamming_depths(qx, fx, top)


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
    d = hamming_cross(
        np.array([p.comparison_bits() for p in plan.rows], dtype=np.uint8),
        np.array([p.comparison_bits() for p in plan.cols], dtype=np.uint8),
    )
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
    marg = PairwiseMatrix.from_comparisons(s.n, s.comparisons[mask])
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
