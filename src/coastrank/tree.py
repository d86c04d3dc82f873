"""Recursive pairwise partitioning of ranking samples.

Grows a binary tree of cells by repeatedly splitting every leaf whose local
variability exceeds a threshold, with either splitting rule, then aggregates
a local median per leaf.  Includes weakest-link pruning into a nested
subtree sequence, penalized subtree selection, and the consensus ranking
distribution (CRD) readout.

The split search never materializes pairwise distance matrices: for a leaf
with m member rankings and comparison submatrix X (m rows, one column per
item pair), the sum of pairwise distances inside any subset is recoverable
from column counts, and the counts of both children of every candidate
split come from the Gram matrix X'X.  One small matmul evaluates the exact
splitting criterion for every admissible pair at once.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .cells import Cell
from .consensus import make_aggregator
from .errors import (
    InadmissiblePairError,
    RejectedInputError,
    TreeStateError,
)
from .perms import Permutation, RankingSample, pair_list

__all__ = [
    "SplitRule",
    "CoastNode",
    "CoastTree",
    "CRD",
    "GrowthStep",
    "GrowthTrace",
    "choose_split_min_distortion",
    "choose_split_balanced",
    "grow",
    "crd_of",
    "prune_sequence",
    "select_subtree",
]


class SplitRule(str, Enum):
    MIN_DISTORTION = "min-distortion"
    BALANCED = "balanced"


def _as_rule(rule) -> SplitRule:
    if isinstance(rule, SplitRule):
        return rule
    try:
        return SplitRule(str(rule))
    except ValueError:
        names = ", ".join(r.value for r in SplitRule)
        raise RejectedInputError(f"unknown split rule {rule!r}; expected one of {names}")


@dataclass
class CoastNode:
    """One cell of the partition tree plus its cached sample statistics."""

    node_id: int
    cell: Cell
    depth: int
    weight: float
    v_hat: float
    count: int | None = None
    pair_sum: int | None = None  # sum of pairwise distances inside the cell
    split: tuple[int, int] | None = None
    children: tuple[int, int] | None = None
    median: Permutation | None = None
    indices: np.ndarray | None = field(default=None, repr=False)

    @property
    def contribution(self) -> float:
        """This cell's term of the plug-in partition criterion."""
        return self.weight * self.v_hat


@dataclass(frozen=True)
class GrowthStep:
    iteration: int
    leaf_count: int
    criterion: float
    splits: tuple[tuple[int, tuple[int, int]], ...]
    wall_time: float


@dataclass(frozen=True)
class GrowthTrace:
    steps: tuple[GrowthStep, ...]

    @property
    def criteria(self) -> tuple[float, ...]:
        return tuple(st.criterion for st in self.steps)

    @property
    def total_wall_time(self) -> float:
        return float(sum(st.wall_time for st in self.steps))


@dataclass(frozen=True)
class CRD:
    """Consensus ranking distribution: one weighted median per source cell."""

    n: int
    atoms: tuple[tuple[float, Permutation, Cell], ...]

    def __post_init__(self):
        if not self.atoms:
            raise RejectedInputError("a CRD needs at least one atom")
        total = 0.0
        for w, med, cell in self.atoms:
            if not (w > 0):
                raise RejectedInputError(f"atom weights must be positive, got {w!r}")
            if med.n != self.n or cell.n != self.n:
                raise RejectedInputError("atom dimension mismatch")
            total += w
        if abs(total - 1.0) > 1e-10:
            raise RejectedInputError(f"atom weights sum to {total!r}, expected 1")

    @property
    def k(self) -> int:
        return len(self.atoms)

    def to_distribution(self):
        """Collapse to a distribution over rankings (merges equal medians)."""
        from .perms import DiscreteRankingDistribution

        return DiscreteRankingDistribution.from_pairs(
            [(med, w) for w, med, _ in self.atoms]
        )

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "atoms": [
                {
                    "weight": w,
                    "median": list(med.to_one_based()),
                    "cell": cell.to_json_obj(),
                }
                for w, med, cell in self.atoms
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "CRD":
        try:
            n = int(obj["n"])
            atoms = tuple(
                (
                    float(a["weight"]),
                    Permutation.from_one_based(a["median"]),
                    Cell.from_json_obj(n, a["cell"]),
                )
                for a in obj["atoms"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, RejectedInputError):
                raise
            raise RejectedInputError(f"malformed CRD document: {exc}") from exc
        return cls(n, atoms)


class CoastTree:
    """An immutable grown partition tree.

    ``frontier`` is the set of node ids acting as leaves; pruned subtrees
    share the node list with the tree they came from and differ only in the
    frontier, so nested sequences are cheap.
    """

    def __init__(self, n: int, nodes: list[CoastNode], frontier, aggregator=None):
        self.n = int(n)
        self.nodes = list(nodes)
        self.frontier = tuple(sorted(frontier))
        self.aggregator = aggregator
        self._frontier_set = frozenset(self.frontier)
        self._columns = {p: c for c, p in enumerate(pair_list(self.n))}

    # -- basic shape ---------------------------------------------------------

    @property
    def root(self) -> CoastNode:
        return self.nodes[0]

    def node(self, node_id: int) -> CoastNode:
        return self.nodes[node_id]

    @property
    def leaf_count(self) -> int:
        return len(self.frontier)

    @property
    def leaves(self) -> list[CoastNode]:
        return [self.nodes[i] for i in self.frontier]

    @property
    def criterion(self) -> float:
        """Plug-in partition criterion of the current frontier."""
        return float(sum(self.nodes[i].contribution for i in self.frontier))

    def subtree(self, frontier) -> "CoastTree":
        return CoastTree(self.n, self.nodes, frontier, aggregator=self.aggregator)

    # -- routing -------------------------------------------------------------

    def route_one(self, sigma: Permutation) -> int:
        """Leaf node id whose cell contains the ranking."""
        if sigma.n != self.n:
            raise RejectedInputError("ranking dimension mismatch")
        cur = 0
        while cur not in self._frontier_set:
            node = self.nodes[cur]
            i, j = node.split
            cur = node.children[0] if sigma.ranks[i] < sigma.ranks[j] else node.children[1]
        return cur

    def route_sample(self, s: RankingSample) -> np.ndarray:
        """Vectorized routing: leaf node id per sample row."""
        if s.n != self.n:
            raise RejectedInputError("sample dimension mismatch")
        x = s.comparisons
        out = np.empty(len(s), dtype=np.int64)
        stack = [(0, np.arange(len(s)))]
        while stack:
            nid, idx = stack.pop()
            if nid in self._frontier_set:
                out[idx] = nid
                continue
            node = self.nodes[nid]
            bits = x[idx, self._columns[node.split]]
            # child 0 keeps "i before j"; stored splits are (i, j) with i < j
            stack.append((node.children[0], idx[bits]))
            stack.append((node.children[1], idx[~bits]))
        return out

    # -- readout -------------------------------------------------------------

    def crd(self) -> CRD:
        atoms = []
        for nid in self.frontier:
            node = self.nodes[nid]
            if node.median is None:
                raise TreeStateError(
                    f"leaf {nid} has no aggregated median; aggregate before reading the CRD"
                )
            atoms.append((node.weight, node.median, node.cell))
        return CRD(self.n, tuple(atoms))

    # -- serialization -------------------------------------------------------

    def to_json_obj(self) -> dict:
        order: list[int] = [0]
        seen = {0}
        for nid in order:
            node = self.nodes[nid]
            if nid not in self._frontier_set and node.children is not None:
                for c in node.children:
                    if c not in seen:
                        seen.add(c)
                        order.append(c)
        renum = {nid: k for k, nid in enumerate(order)}
        out = []
        for nid in order:
            node = self.nodes[nid]
            is_leaf = nid in self._frontier_set
            out.append(
                {
                    "id": renum[nid],
                    "constraints": node.cell.to_json_obj(),
                    "weight": node.weight,
                    "v_hat": node.v_hat,
                    "split": None if is_leaf else [node.split[0] + 1, node.split[1] + 1],
                    "children": None
                    if is_leaf
                    else [renum[node.children[0]], renum[node.children[1]]],
                    "median": None if node.median is None else list(node.median.to_one_based()),
                }
            )
        return {"n": self.n, "nodes": out}

    @classmethod
    def from_json_obj(cls, obj: dict, aggregator=None) -> "CoastTree":
        try:
            n = int(obj["n"])
            raw = list(obj["nodes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise RejectedInputError(f"malformed tree document: {exc}") from exc
        if not raw:
            raise RejectedInputError("tree document has no nodes")
        by_id: dict[int, CoastNode] = {}
        referenced: set[int] = set()
        for r in raw:
            cell = Cell.from_json_obj(n, r["constraints"])
            split = r.get("split")
            children = r.get("children")
            median = r.get("median")
            if split is not None:
                split = (int(split[0]) - 1, int(split[1]) - 1)
            if children is not None:
                children = (int(children[0]), int(children[1]))
            if split is not None and children is not None and split[0] > split[1]:
                # child 0 holds "split[0] before split[1]": flip both to keep i < j
                split, children = split[::-1], children[::-1]
            node = CoastNode(
                node_id=int(r["id"]),
                cell=cell,
                depth=len(cell.constraints),
                weight=float(r["weight"]),
                v_hat=float(r["v_hat"]),
                split=split,
                children=children,
                median=None if median is None else Permutation.from_one_based(median),
            )
            by_id[node.node_id] = node
            if children is not None:
                referenced.update(node.children)
        roots = [nid for nid in by_id if nid not in referenced]
        if len(roots) != 1:
            raise RejectedInputError(f"tree document must have exactly one root, found {len(roots)}")
        # normalize ids to list positions
        order = [roots[0]]
        for nid in order:
            node = by_id[nid]
            if node.children is not None:
                order.extend(node.children)
        renum = {nid: k for k, nid in enumerate(order)}
        nodes = []
        for nid in order:
            node = by_id[nid]
            node.node_id = renum[nid]
            if node.children is not None:
                node.children = (renum[node.children[0]], renum[node.children[1]])
            nodes.append(node)
        frontier = [node.node_id for node in nodes if node.children is None]
        return cls(n, nodes, frontier, aggregator=aggregator)


# --- split search -----------------------------------------------------------


def _subset_stats(x: np.ndarray, indices: np.ndarray) -> tuple[int, int]:
    """(count, sum of pairwise distances) for the given sample rows."""
    m = int(len(indices))
    if m <= 1:
        return m, 0
    counts = x[indices].sum(axis=0, dtype=np.int64)
    return m, int((counts * (m - counts)).sum())


def _v_of(m: int, pair_sum: int) -> float:
    return float(pair_sum) / (m * (m - 1)) if m >= 2 else 0.0


def _child_score(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Unnormalized criterion term m * v_hat = pair_sum / (m - 1), 0 for m <= 1."""
    denom = np.maximum(m - 1, 1)
    return np.where(m >= 2, s / denom, 0.0)


#: Rows per chunk of the split search's Gram matrix.
_GRAM_ROWS = 1024


@dataclass(frozen=True)
class _SplitPlan:
    node_id: int
    pair: tuple[int, int]
    column: int
    reduction: float  # parent score minus both child scores (N-free units)
    child_ms: tuple[int, int]
    child_sums: tuple[int, int]


def _plan_min_distortion(
    x: np.ndarray, node: CoastNode, candidates: np.ndarray, pairs: list[tuple[int, int]]
) -> _SplitPlan:
    idx = node.indices
    m = node.count
    # X'X over row chunks: exact (integer sums in float64), and no float copy
    # of all m rows
    gram = np.zeros((x.shape[1], x.shape[1]))
    for start in range(0, m, _GRAM_ROWS):
        xc = x[idx[start : start + _GRAM_ROWS]].astype(np.float64)
        gram += xc.T @ xc
    gram = np.rint(gram).astype(np.int64)
    t = np.diag(gram)
    c0 = gram[candidates, :]
    m0 = t[candidates][:, None]
    c1 = t[None, :] - c0
    m1 = m - m0
    s0 = (c0 * (m0 - c0)).sum(axis=1)
    s1 = (c1 * (m1 - c1)).sum(axis=1)
    score = _child_score(m0[:, 0], s0) + _child_score(m1[:, 0], s1)
    k = int(np.argmin(score))  # first minimum = lexicographic tie-break
    col = int(candidates[k])
    parent_score = _child_score(np.array([m]), np.array([node.pair_sum]))[0]
    return _SplitPlan(
        node_id=node.node_id,
        pair=pairs[col],
        column=col,
        reduction=float(parent_score - score[k]),
        child_ms=(int(m0[k, 0]), int(m1[k, 0])),
        child_sums=(int(s0[k]), int(s1[k])),
    )


def _plan_balanced(
    x: np.ndarray, node: CoastNode, candidates: np.ndarray, pairs: list[tuple[int, int]]
) -> _SplitPlan:
    idx = node.indices
    m = node.count
    t = x[idx].sum(axis=0, dtype=np.int64)
    k = int(np.argmin(np.abs(t[candidates] / m - 0.5)))
    col = int(candidates[k])
    bits = x[idx, col]
    m0, s0 = _subset_stats(x, idx[bits])
    m1, s1 = _subset_stats(x, idx[~bits])
    parent_score = _child_score(np.array([m]), np.array([node.pair_sum]))[0]
    child_score = _child_score(np.array([m0]), np.array([s0]))[0] + _child_score(
        np.array([m1]), np.array([s1])
    )[0]
    return _SplitPlan(
        node_id=node.node_id,
        pair=pairs[col],
        column=col,
        reduction=float(parent_score - child_score),
        child_ms=(m0, m1),
        child_sums=(s0, s1),
    )


def _candidate_columns(x: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Columns where the subsample genuinely disagrees (both children nonempty).

    Any such column's pair is automatically admissible in the cell: a pair
    ordered by the cell's closure is constant across member rankings.
    """
    m = len(indices)
    t = x[indices].sum(axis=0, dtype=np.int64)
    return np.nonzero((t > 0) & (t < m))[0]


def _choose_split(cell: Cell, s: RankingSample, rule: SplitRule) -> tuple[int, int]:
    indices = np.nonzero(cell.membership_mask(s))[0]
    if len(indices) < 2:
        raise RejectedInputError("splitting needs at least 2 member rankings in the cell")
    admissible = sorted(cell.admissible_pairs())
    if not admissible:
        raise InadmissiblePairError("cell admits no further split")
    pairs = pair_list(s.n)
    x = s.comparisons
    candidates = _candidate_columns(x, indices)
    if len(candidates) == 0:
        # sample is constant on every free pair; any split is criterion-neutral
        return admissible[0]
    m, pair_sum = _subset_stats(x, indices)
    node = CoastNode(
        node_id=-1,
        cell=cell,
        depth=len(cell.constraints),
        weight=m / len(s),
        v_hat=_v_of(m, pair_sum),
        count=m,
        pair_sum=pair_sum,
        indices=indices,
    )
    planner = _plan_min_distortion if rule is SplitRule.MIN_DISTORTION else _plan_balanced
    return planner(x, node, candidates, pairs).pair


def choose_split_min_distortion(cell: Cell, s: RankingSample) -> tuple[int, int]:
    """Admissible pair minimizing the two-child weighted variability sum."""
    return _choose_split(cell, s, SplitRule.MIN_DISTORTION)


def choose_split_balanced(cell: Cell, s: RankingSample) -> tuple[int, int]:
    """Admissible pair whose local marginal is closest to 1/2."""
    return _choose_split(cell, s, SplitRule.BALANCED)


# --- growth -----------------------------------------------------------------


def _resolve_threads(threads: int | None) -> int:
    if threads is None:
        raw = os.environ.get("RANK_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            threads = 0
        if threads < 1:
            raise RejectedInputError(f"RANK_THREADS must be a positive integer, got {raw!r}")
    return max(1, int(threads))


def grow(
    s: RankingSample,
    epsilon: float = 0.0,
    rule: SplitRule | str = SplitRule.MIN_DISTORTION,
    max_leaves: int | None = None,
    aggregator="auto",
    *,
    seed: int = 0,
    one_split_per_iter: bool = False,
    threads: int | None = None,
) -> tuple[CoastTree, GrowthTrace]:
    """Grow the partition tree and aggregate a median per leaf.

    Each outer iteration splits every leaf whose variability estimate
    exceeds ``epsilon`` (or only the single most-reducing leaf with
    ``one_split_per_iter``), halting before any iteration that would push
    the leaf count past ``max_leaves``.
    """
    if len(s) < 1:
        raise RejectedInputError("cannot grow a tree from an empty sample")
    if not (isinstance(epsilon, (int, float)) and epsilon >= 0):
        raise RejectedInputError(f"epsilon must be a real >= 0, got {epsilon!r}")
    rule = _as_rule(rule)
    n_total = len(s)
    if max_leaves is None:
        max_leaves = n_total
    if max_leaves < 1:
        raise RejectedInputError("max_leaves must be >= 1")
    if callable(aggregator):
        agg = aggregator
    else:
        agg = make_aggregator(str(aggregator), seed=seed)
    threads = _resolve_threads(threads)
    pairs = pair_list(s.n)
    x = s.comparisons

    t0 = time.perf_counter()
    all_idx = np.arange(n_total)
    m, pair_sum = _subset_stats(x, all_idx)
    root = CoastNode(
        node_id=0,
        cell=Cell.root(s.n),
        depth=0,
        weight=1.0,
        v_hat=_v_of(m, pair_sum),
        count=m,
        pair_sum=pair_sum,
        indices=all_idx,
    )
    nodes = [root]
    frontier: set[int] = {0}
    planner = _plan_min_distortion if rule is SplitRule.MIN_DISTORTION else _plan_balanced

    def criterion_now() -> float:
        return sum(nodes[i].contribution for i in frontier)

    steps = [GrowthStep(0, 1, criterion_now(), (), time.perf_counter() - t0)]
    iteration = 0
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        while True:
            iteration += 1
            t_iter = time.perf_counter()
            eligible = sorted(
                nid
                for nid in frontier
                if nodes[nid].v_hat > epsilon and nodes[nid].count >= 2
            )
            if not eligible:
                break
            # every eligible leaf splits (or only the best one), so check the
            # leaf budget before planning rather than discard a round of plans
            if len(frontier) + (1 if one_split_per_iter else len(eligible)) > max_leaves:
                break

            def plan_for(nid: int) -> _SplitPlan | None:
                node = nodes[nid]
                cand = _candidate_columns(x, node.indices)
                if len(cand) == 0:  # cannot happen for v_hat > 0; guard anyway
                    return None
                return planner(x, node, cand, pairs)

            if pool is not None:
                plans = [p for p in pool.map(plan_for, eligible) if p is not None]
            else:
                plans = [p for p in map(plan_for, eligible) if p is not None]
            if not plans:
                break
            if one_split_per_iter:
                best = max(plans, key=lambda p: (p.reduction, -p.node_id))
                plans = [best]

            applied = []
            for plan in plans:
                parent = nodes[plan.node_id]
                cell0, cell1 = parent.cell.split(plan.pair)
                bits = x[parent.indices, plan.column]
                idx_children = (parent.indices[bits], parent.indices[~bits])
                child_ids = []
                for side in (0, 1):
                    cm = plan.child_ms[side]
                    cs = plan.child_sums[side]
                    child = CoastNode(
                        node_id=len(nodes),
                        cell=(cell0, cell1)[side],
                        depth=parent.depth + 1,
                        weight=cm / n_total,
                        v_hat=_v_of(cm, cs),
                        count=cm,
                        pair_sum=cs,
                        indices=idx_children[side],
                    )
                    nodes.append(child)
                    child_ids.append(child.node_id)
                parent.split = plan.pair
                parent.children = (child_ids[0], child_ids[1])
                frontier.remove(plan.node_id)
                frontier.update(child_ids)
                applied.append((plan.node_id, plan.pair))
            steps.append(
                GrowthStep(
                    iteration,
                    len(frontier),
                    criterion_now(),
                    tuple(applied),
                    time.perf_counter() - t_iter,
                )
            )
    finally:
        if pool is not None:
            pool.shutdown(wait=False)

    for nid in sorted(frontier):
        node = nodes[nid]
        node.median = agg(s.subset(node.indices), nid)
    tree = CoastTree(s.n, nodes, frontier, aggregator=agg)
    return tree, GrowthTrace(tuple(steps))


def crd_of(tree: CoastTree) -> CRD:
    """The tree's consensus ranking distribution (leaf weights and medians)."""
    return tree.crd()


# --- pruning and selection ----------------------------------------------------


def _ensure_median(tree: CoastTree, node: CoastNode, s: RankingSample, agg) -> None:
    if node.median is not None:
        return
    if agg is None:
        raise TreeStateError("pruning needs an aggregator to produce collapsed-leaf medians")
    if node.indices is not None:
        sub = s.subset(node.indices)
    else:
        sub = s.subset(np.nonzero(node.cell.membership_mask(s))[0])
    node.median = agg(sub, node.node_id)


def prune_sequence(tree: CoastTree, s: RankingSample, aggregator=None) -> list[CoastTree]:
    """Weakest-link collapse sequence T_K ⊃ T_{K-1} ⊃ … ⊃ T_1 (root).

    Each step collapses the internal node, with both children in the
    current frontier, whose removal increases the partition criterion the
    least; deltas come from cached node statistics, never from re-scanning
    the sample.
    """
    agg = aggregator or tree.aggregator or make_aggregator("auto", seed=0)
    parent_of: dict[int, int] = {}
    stack = [0]
    while stack:
        nid = stack.pop()
        node = tree.nodes[nid]
        if nid not in tree._frontier_set and node.children is not None:
            for c in node.children:
                parent_of[c] = nid
                stack.append(c)
    frontier = set(tree.frontier)
    seq = [tree]
    while len(frontier) > 1:
        collapsible = sorted(
            {
                parent_of[nid]
                for nid in frontier
                if nid in parent_of
                and all(c in frontier for c in tree.nodes[parent_of[nid]].children)
            }
        )
        node_of = tree.nodes.__getitem__
        deltas = [
            (
                node_of(p).contribution
                - node_of(node_of(p).children[0]).contribution
                - node_of(node_of(p).children[1]).contribution,
                p,
            )
            for p in collapsible
        ]
        _, victim = min(deltas, key=lambda dp: (dp[0], dp[1]))
        for c in tree.nodes[victim].children:
            frontier.remove(c)
        frontier.add(victim)
        _ensure_median(tree, tree.nodes[victim], s, agg)
        seq.append(tree.subtree(frontier))
    return seq


def select_subtree(seq: list[CoastTree], lam: float) -> CoastTree:
    """Minimizer of criterion + lam * leaf_count; ties go to fewer leaves."""
    if not seq:
        raise RejectedInputError("empty subtree sequence")
    if not (isinstance(lam, (int, float)) and lam >= 0):
        raise RejectedInputError(f"lambda must be a real >= 0, got {lam!r}")
    return min(seq, key=lambda t: (t.criterion + lam * t.leaf_count, t.leaf_count))
