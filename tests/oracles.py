"""Independent brute-force oracles used to pin expected values in tests.

Everything here is deliberately naive: direct definitions, exhaustive
enumeration, no shared code paths with the package internals beyond the
Permutation container type.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from coastrank.perms import DiscreteRankingDistribution, Permutation, RankingSample


def naive_kendall(a: Permutation, b: Permutation) -> int:
    d = 0
    for i in range(a.n):
        for j in range(i + 1, a.n):
            if (a.ranks[i] - a.ranks[j]) * (b.ranks[i] - b.ranks[j]) < 0:
                d += 1
    return d


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
