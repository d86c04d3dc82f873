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
splitting criterion for every admissible pair at once.  Gram entries are
integer counts, so a split node's matrix is kept for its children: the
smaller child's is built from its rows and the larger's is the parent's
minus it, exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .cells import Cell, pair_distance_sum, v_hat_of_counts
from .consensus import make_aggregator
from .errors import (
    InadmissiblePairError,
    RejectedInputError,
    TreeStateError,
)
from .perms import PairwiseMatrix, Permutation, RankingSample, pair_list

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
    "prune_sequence",
    "select_subtree",
]

#: Absolute slack in the weight sums a loaded tree document must satisfy.
_WEIGHT_TOL = 1e-9


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
    """One cell of the partition tree plus its cached sample statistics.

    ``counts`` holds the int64 column counts of the node's rows (how many
    rank i before j, per item pair); with ``count`` they fix the cell's
    variability, split scores and pairwise marginals.
    """

    node_id: int
    cell: Cell
    depth: int
    weight: float
    v_hat: float
    count: int | None = None
    counts: np.ndarray | None = field(default=None, repr=False)
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
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
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

    def leaf_counts(self, s: RankingSample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Leaf node id per row; per frontier leaf, its row count and column counts.

        The counts are one leaf-indicator × comparison-matrix product, run in
        _GRAM_ROWS-row chunks in _gram_dtype, so they are exact integers for
        the reason the split search's Gram entries are.
        """
        leaf_of = self.route_sample(s)
        pos = np.searchsorted(self.frontier, leaf_of)
        x, dtype, leaves = s.comparisons, _gram_dtype(len(s)), np.arange(self.leaf_count)
        # columns × leaves: a transposed chunk of the column-major comparison
        # matrix is row-major, which BLAS reads fastest
        counts = np.zeros((x.shape[1], self.leaf_count), dtype=dtype)
        for start in range(0, len(s), _GRAM_ROWS):
            onehot = (pos[start : start + _GRAM_ROWS, None] == leaves).astype(dtype)
            counts += x[start : start + _GRAM_ROWS].T.astype(dtype) @ onehot
        rows = np.bincount(pos, minlength=self.leaf_count)
        return leaf_of, rows, counts.T.astype(np.int64)

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
    def from_json_obj(
        cls, obj: dict, aggregator=None, items: int | None = None
    ) -> "CoastTree":
        """Load a tree document, rejecting any node that cannot route.

        Every node needs ``id``, ``constraints`` and a finite, non-negative
        ``weight`` and ``v_hat``; a split names two distinct items in 1..n and
        comes with two children; each child exists and has one parent, every
        node is reachable from the one root, and a child's constraints are
        its parent's plus the split in the child's orientation. Each internal
        node's weight is the sum of its children's, and the frontier weights
        sum to 1, both within ``_WEIGHT_TOL``. Splits are normalized to i < j,
        and a median must rank all n items. With ``items`` given, a document
        over another item count is refused before any node is built.
        """
        try:
            n = int(obj["n"])
            raw = list(obj["nodes"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise RejectedInputError(f"malformed tree document: {exc}") from exc
        if items is not None and n != items:
            raise RejectedInputError(f"tree document is over {n} items, the rankings over {items}")
        if not raw:
            raise RejectedInputError("tree document has no nodes")
        by_id: dict[int, CoastNode] = {}
        parent_of: dict[int, int] = {}
        for pos, r in enumerate(raw):
            node = _node_from_json(n, r, pos)
            if node.node_id in by_id:
                raise RejectedInputError(f"tree node {node.node_id}: duplicate id")
            by_id[node.node_id] = node
        for nid, node in by_id.items():
            for c in node.children or ():
                if c not in by_id:
                    raise RejectedInputError(f"tree node {nid}: child {c} does not exist")
                if c in parent_of:
                    raise RejectedInputError(
                        f"tree node {nid}: child {c} is already a child of node {parent_of[c]}"
                    )
                parent_of[c] = nid
        roots = [nid for nid in by_id if nid not in parent_of]
        if len(roots) != 1:
            raise RejectedInputError(f"tree document must have exactly one root, found {len(roots)}")
        # normalize ids to list positions; with one parent per child this visits each node once
        order = [roots[0]]
        for nid in order:
            order.extend(by_id[nid].children or ())
        if len(order) != len(by_id):
            lost = min(set(by_id) - set(order))
            raise RejectedInputError(f"tree node {lost}: not reachable from root {roots[0]}")
        for nid in order:
            node = by_id[nid]
            if node.children is None:
                continue
            i, j = node.split
            for c, (a, b) in zip(node.children, ((i, j), (j, i))):
                if by_id[c].cell.constraints != node.cell.constraints | {(a, b)}:
                    raise RejectedInputError(
                        f"tree node {c}: constraints are not those of parent {nid} "
                        f"plus {a + 1} before {b + 1}"
                    )
            kids = by_id[node.children[0]].weight + by_id[node.children[1]].weight
            if abs(node.weight - kids) > _WEIGHT_TOL:
                raise RejectedInputError(
                    f"tree node {nid}: weight {node.weight!r} is not its children's sum {kids!r}"
                )
        total = math.fsum(by_id[nid].weight for nid in order if by_id[nid].children is None)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise RejectedInputError(
                f"tree node {roots[0]}: frontier weights sum to {total!r}, not 1"
            )
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


def _node_from_json(n: int, r, pos: int) -> CoastNode:
    """One node of a tree document; errors name the node id."""
    if not isinstance(r, dict) or "id" not in r:
        raise RejectedInputError(f"tree node at position {pos}: missing 'id'")
    try:
        nid = int(r["id"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise RejectedInputError(f"tree node at position {pos}: bad id {r['id']!r}") from exc
    for key in ("constraints", "weight", "v_hat"):
        if key not in r:
            raise RejectedInputError(f"tree node {nid}: missing {key!r}")
    try:
        cell = Cell.from_json_obj(n, r["constraints"])
        split, children, median = r.get("split"), r.get("children"), r.get("median")
        if (split is None) != (children is None):
            raise ValueError("split and children must be given together")
        if split is not None:
            i, j = (int(v) for v in split)
            if i == j or not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"split {[i, j]} needs two distinct items in 1..{n}")
            a, b = (int(v) for v in children)
            # child 0 holds "split[0] before split[1]": flip both to keep i < j
            split, children = ((i - 1, j - 1), (a, b)) if i < j else ((j - 1, i - 1), (b, a))
        weight, v_hat = float(r["weight"]), float(r["v_hat"])
        for key, v in (("weight", weight), ("v_hat", v_hat)):
            if not (math.isfinite(v) and v >= 0.0):  # NaN would pass every later tolerance check
                raise ValueError(f"{key} must be finite and >= 0, got {v!r}")
        if median is not None:
            median = Permutation.from_one_based(median)
            if median.n != n:
                raise ValueError(f"median ranks {median.n} items, not {n}")
        return CoastNode(
            node_id=nid,
            cell=cell,
            depth=len(cell.constraints),
            weight=weight,
            v_hat=v_hat,
            split=split,
            children=children,
            median=median,
        )
    except (TypeError, ValueError, OverflowError) as exc:  # RejectedInputError is a ValueError
        raise RejectedInputError(f"tree node {nid}: {exc}") from exc


# --- split search -----------------------------------------------------------


def _child_score(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Unnormalized criterion term m * v_hat = pair_sum / (m - 1), 0 for m <= 1."""
    denom = np.maximum(m - 1, 1)
    return np.where(m >= 2, s / denom, 0.0)


def _score(m: int, counts: np.ndarray) -> float:
    """_child_score of one cell of m rows with the given column counts."""
    return pair_distance_sum(counts, m) / (m - 1) if m >= 2 else 0.0


#: Rows per chunk of the split search's Gram matrix.
_GRAM_ROWS = 1024

#: Candidate rows per int64 block when scoring splits from a Gram matrix.
_SCORE_ROWS = 64

#: Nodes with fewer rows than this get float32 Gram matrices: every entry is
#: an integer count of at most the node's rows, which float32 holds exactly
#: below 2**24.
_FLOAT32_ROWS = 1 << 24

#: Bytes of Gram matrices that grow keeps from one round to the next, so that
#: a child's matrix comes from its parent's minus its sibling's.
_GRAM_KEEP_BYTES = 1 << 30


def _gram_dtype(m: int) -> type:
    return np.float32 if m < _FLOAT32_ROWS else np.float64


def _gram(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """X'X over the given rows of x, summed over _GRAM_ROWS chunks.

    Every entry is an exact integer: a chunk's products count at most
    _GRAM_ROWS rows and the sums at most len(rows), below 2**24 in float32.
    """
    dtype = _gram_dtype(len(rows))
    gram = np.zeros((x.shape[1], x.shape[1]), dtype=dtype)
    for start in range(0, len(rows), _GRAM_ROWS):
        xc = x[rows[start : start + _GRAM_ROWS]].astype(dtype)
        gram += xc.T @ xc
    return gram


def _split_sums(
    gram: np.ndarray, t: np.ndarray, m: int, candidates: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows and pair-distance sums of both children of each candidate split.

    Candidate k's Gram row G holds child 0's column counts and t - G child
    1's. With r = ΣG, q = ΣG² and m0 = t[k], m1 = m - m0:
    s0 = Σ G·(m0 - G) = m0·r - q and
    s1 = Σ (t - G)·(m1 - t + G) = m1·Σt - Σt² + 2·G·t - m1·r - q.
    Rows are read in int64 blocks of _SCORE_ROWS, so every term is exact and
    no C×C integer temporary is made.
    """
    r = np.empty(len(candidates), dtype=np.int64)
    q = np.empty_like(r)
    gt = np.empty_like(r)
    for start in range(0, len(candidates), _SCORE_ROWS):
        block = slice(start, start + _SCORE_ROWS)
        g = gram[candidates[block]].astype(np.int64)
        r[block] = g.sum(axis=1)
        q[block] = np.einsum("ij,ij->i", g, g)
        gt[block] = g @ t
    m0 = t[candidates]
    m1 = m - m0
    s0 = m0 * r - q
    s1 = m1 * t.sum() - (t * t).sum() + 2 * gt - m1 * r - q
    return m0, m1, s0, s1


@dataclass(frozen=True)
class _SplitPlan:
    node_id: int
    pair: tuple[int, int]
    column: int
    reduction: float  # parent score minus both child scores (N-free units)
    child_ms: tuple[int, int]
    child_counts: tuple[np.ndarray, np.ndarray]


def _plan_min_distortion(
    gram: np.ndarray, node: CoastNode, candidates: np.ndarray, pairs: list[tuple[int, int]]
) -> _SplitPlan:
    """Best split of a node from its Gram matrix X'X (any float dtype, integer entries)."""
    m = node.count
    t = node.counts  # the diagonal of gram
    m0, m1, s0, s1 = _split_sums(gram, t, m, candidates)
    score = _child_score(m0, s0) + _child_score(m1, s1)
    k = int(np.argmin(score))  # first minimum = lexicographic tie-break
    col = int(candidates[k])
    c0 = gram[col].astype(np.int64)
    return _SplitPlan(
        node_id=node.node_id,
        pair=pairs[col],
        column=col,
        reduction=float(_score(m, t) - score[k]),
        child_ms=(int(m0[k]), int(m1[k])),
        child_counts=(c0, t - c0),
    )


def _plan_balanced(
    x: np.ndarray, node: CoastNode, candidates: np.ndarray, pairs: list[tuple[int, int]]
) -> _SplitPlan:
    m = node.count
    t = node.counts
    k = int(np.argmin(np.abs(t[candidates] / m - 0.5)))
    col = int(candidates[k])
    rows0 = node.indices[x[node.indices, col]]
    m0, c0 = len(rows0), x[rows0].sum(axis=0, dtype=np.int64)
    m1, c1 = m - m0, t - c0
    return _SplitPlan(
        node_id=node.node_id,
        pair=pairs[col],
        column=col,
        reduction=float(_score(m, t) - (_score(m0, c0) + _score(m1, c1))),
        child_ms=(m0, m1),
        child_counts=(c0, c1),
    )


def _choose_split(cell: Cell, s: RankingSample, rule: SplitRule) -> tuple[int, int]:
    indices = np.nonzero(cell.membership_mask(s))[0]
    if len(indices) < 2:
        raise RejectedInputError("splitting needs at least 2 member rankings in the cell")
    admissible = sorted(cell.admissible_pairs())
    if not admissible:
        raise InadmissiblePairError("cell admits no further split")
    x = s.comparisons
    m, counts = len(indices), x[indices].sum(axis=0, dtype=np.int64)
    node = CoastNode(
        node_id=-1,
        cell=cell,
        depth=len(cell.constraints),
        weight=m / len(s),
        v_hat=v_hat_of_counts(counts, m),
        count=m,
        counts=counts,
        indices=indices,
    )
    # columns where the rows genuinely disagree (both children nonempty); a
    # pair ordered by the cell's closure is constant on them, so these pairs
    # are admissible
    candidates = np.nonzero((counts > 0) & (counts < m))[0]
    if len(candidates) == 0:
        # sample is constant on every free pair; any split is criterion-neutral
        return admissible[0]
    pairs = pair_list(s.n)
    if rule is SplitRule.MIN_DISTORTION:
        return _plan_min_distortion(_gram(x, indices), node, candidates, pairs).pair
    return _plan_balanced(x, node, candidates, pairs).pair


def choose_split_min_distortion(cell: Cell, s: RankingSample) -> tuple[int, int]:
    """Admissible pair minimizing the two-child weighted variability sum."""
    return _choose_split(cell, s, SplitRule.MIN_DISTORTION)


def choose_split_balanced(cell: Cell, s: RankingSample) -> tuple[int, int]:
    """Admissible pair whose local marginal is closest to 1/2."""
    return _choose_split(cell, s, SplitRule.BALANCED)


# --- growth -----------------------------------------------------------------


def grow(
    s: RankingSample,
    epsilon: float = 0.0,
    rule: SplitRule | str = SplitRule.MIN_DISTORTION,
    max_leaves: int | None = None,
    aggregator="auto",
    *,
    seed: int = 0,
    one_split_per_iter: bool = False,
) -> tuple[CoastTree, GrowthTrace]:
    """Grow the partition tree and aggregate a median per leaf.

    Each outer iteration splits every leaf whose variability estimate
    exceeds ``epsilon`` (or only the single most-reducing leaf with
    ``one_split_per_iter``), halting before any iteration that would push
    the leaf count past ``max_leaves``.

    ``aggregator`` is a name from ``consensus.AGGREGATOR_KINDS`` or a callable
    ``agg(marginals, node_id) -> Permutation``; it receives the cell's
    ``PairwiseMatrix`` (its column counts over its row count) and the
    node id, and ``prune_sequence`` calls it the same way for collapsed
    nodes.
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
    pairs = pair_list(s.n)
    x = s.comparisons

    t0 = time.perf_counter()
    counts = x.sum(axis=0, dtype=np.int64)
    root = CoastNode(
        node_id=0,
        cell=Cell.root(s.n),
        depth=0,
        weight=1.0,
        v_hat=v_hat_of_counts(counts, n_total),
        count=n_total,
        counts=counts,
        indices=np.arange(n_total),
    )
    nodes = [root]
    frontier: set[int] = {0}
    gram_size = x.shape[1] ** 2

    def criterion_now() -> float:
        return sum(nodes[i].contribution for i in frontier)

    def candidates_of(node: CoastNode) -> np.ndarray:
        return np.nonzero((node.counts > 0) & (node.counts < node.count))[0]

    def plan_balanced(nid: int) -> list[tuple[_SplitPlan, None]]:
        node = nodes[nid]
        cand = candidates_of(node)
        if len(cand) == 0:  # cannot happen for v_hat > 0; guard anyway
            return []
        return [(_plan_balanced(x, node, cand, pairs), None)]

    def plan_min_distortion(job, keep: set[int]) -> list[tuple[_SplitPlan, np.ndarray | None]]:
        """Plans for one node, or for the eligible children of one kept parent.

        A kept parent's children get the smaller child's Gram matrix from its
        rows (ties go to child 0) and the other's by subtracting it from the
        parent's in place. Each plan comes with its Gram matrix if its node
        is in ``keep``.
        """
        ids, parent, parent_gram = job
        if parent_gram is None:
            grams = {ids[0]: _gram(x, nodes[ids[0]].indices)}
        else:
            c0, c1 = nodes[parent].children
            small, large = (c0, c1) if nodes[c0].count <= nodes[c1].count else (c1, c0)
            grams = {small: _gram(x, nodes[small].indices)}
            if large in ids:
                parent_gram -= grams[small]
                grams[large] = parent_gram
        out = []
        for nid in ids:
            node, gram = nodes[nid], grams.pop(nid)
            cand = candidates_of(node)
            if len(cand) > 0:  # always, for v_hat > 0
                plan = _plan_min_distortion(gram, node, cand, pairs)
                out.append((plan, gram if nid in keep else None))
        return out

    def plan_round(eligible: list[int], parents: dict[int, np.ndarray], pending: dict):
        """This round's plans, and the Gram matrices to keep for their children.

        ``parents`` holds the Gram matrices kept from the last round; it is
        emptied, so a parent none of whose children is eligible is freed.
        ``pending`` maps each leaf planned in an earlier round but not split
        to its plan and kept Gram matrix. A plan depends only on its leaf's
        rows, so such a leaf is not planned again; this round's unapplied
        plans replace the map's contents.
        """
        to_plan = [nid for nid in eligible if nid not in pending]
        planned = list(pending.values())
        if rule is SplitRule.MIN_DISTORTION:
            keep = set()
            spare = _GRAM_KEEP_BYTES - sum(g.nbytes for _, g in pending.values() if g is not None)
            for nid in to_plan:
                size = gram_size * np.dtype(_gram_dtype(nodes[nid].count)).itemsize
                if size <= spare:
                    keep.add(nid)
                    spare -= size
            new_ids, derived, work = set(to_plan), set(), []
            for pid, gram in parents.items():
                ids = [c for c in nodes[pid].children if c in new_ids]
                if ids:
                    work.append((ids, pid, gram))
                    derived.update(ids)
            parents.clear()
            work += [([nid], None, None) for nid in to_plan if nid not in derived]
            for job in work:
                planned += plan_min_distortion(job, keep)
        else:
            for nid in to_plan:
                planned += plan_balanced(nid)
        planned.sort(key=lambda pg: pg[0].node_id)
        pending.clear()
        if one_split_per_iter and planned:
            best = max(planned, key=lambda pg: (pg[0].reduction, -pg[0].node_id))
            pending.update((pg[0].node_id, pg) for pg in planned if pg is not best)
            planned = [best]
        return [p for p, _ in planned], {p.node_id: g for p, g in planned if g is not None}

    steps = [GrowthStep(0, 1, criterion_now(), (), time.perf_counter() - t0)]
    iteration = 0
    kept: dict[int, np.ndarray] = {}  # Gram matrices of the last round's split nodes
    pending: dict[int, tuple] = {}  # plans of leaves not yet split, one split per round
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

        plans, kept = plan_round(eligible, kept, pending)
        if not plans:
            break

        applied = []
        for plan in plans:
            parent = nodes[plan.node_id]
            cell0, cell1 = parent.cell.split(plan.pair)
            bits = x[parent.indices, plan.column]
            idx_children = (parent.indices[bits], parent.indices[~bits])
            child_ids = []
            for side in (0, 1):
                cm, cc = plan.child_ms[side], plan.child_counts[side]
                child = CoastNode(
                    node_id=len(nodes),
                    cell=(cell0, cell1)[side],
                    depth=parent.depth + 1,
                    weight=cm / n_total,
                    v_hat=v_hat_of_counts(cc, cm),
                    count=cm,
                    counts=cc,
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
    kept.clear()  # free the Gram matrices before aggregating
    pending.clear()

    for nid in sorted(frontier):
        node = nodes[nid]
        node.median = agg(PairwiseMatrix.from_counts(s.n, node.counts, node.count), nid)
    tree = CoastTree(s.n, nodes, frontier, aggregator=agg)
    return tree, GrowthTrace(tuple(steps))


# --- pruning and selection ----------------------------------------------------


def prune_sequence(tree: CoastTree, s: RankingSample) -> list[CoastTree]:
    """Weakest-link collapse sequence T_K ⊃ T_{K-1} ⊃ … ⊃ T_1 (root).

    Each step collapses the internal node, with both children in the
    current frontier, whose removal increases the partition criterion the
    least; deltas come from cached node statistics. A collapsed node without
    a median gets one from the column counts of its rows: the sample is
    routed once, and a collapsed node's counts are its children's sums.
    """
    agg = tree.aggregator or make_aggregator("auto", seed=0)
    # only frontier nodes and the nodes above them are ever looked up
    parent_of = {c: p for p, node in enumerate(tree.nodes) for c in node.children or ()}
    _, sizes, leaf_cnt = tree.leaf_counts(s)
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


def select_subtree(seq: list[CoastTree], lam: float) -> CoastTree:
    """Minimizer of criterion + lam * leaf_count; ties go to fewer leaves."""
    if not seq:
        raise RejectedInputError("empty subtree sequence")
    if not (isinstance(lam, (int, float)) and lam >= 0):
        raise RejectedInputError(f"lambda must be a real >= 0, got {lam!r}")
    return min(seq, key=lambda t: (t.criterion + lam * t.leaf_count, t.leaf_count))
