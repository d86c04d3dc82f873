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
minus it, exactly.  X'X is symmetric, so it is held as its upper panels
G[p:p+256, p:] (about 60% of the C×C entries at C = 1,225, just over half
for larger C), and the split sums read each panel's part right of its
diagonal block down its columns for the lower triangle.  Every panel but
the last, square one packs two of its rows into one float32 operand row, in
base 2**12, so its product does half the multiply-adds and stays exact (see
_gram).  A round after which the frontier reaches ``max_leaves`` keeps no
matrix, and a parent's is freed as soon as its children are planned.

X is never stored: growth, routing and leaf counts read the sample's rank
matrix, building comparison rows one row block at a time
(``perms.comparison_block``), and a split on pair (i, j) compares two rank
columns.
"""

from __future__ import annotations

import heapq
import math
import time
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .cells import Cell, pair_distance_sum, v_hat_of_counts
from .consensus import make_aggregator
from .errors import RejectedInputError, TreeStateError, json_int
from .perms import (
    PairwiseMatrix,
    Permutation,
    RankingSample,
    comparison_block,
    comparison_counts,
    comparison_rows,
    num_pairs,
    pair_list,
)

__all__ = [
    "SplitRule",
    "CoastNode",
    "CoastTree",
    "CRD",
    "GrowthStep",
    "GrowthTrace",
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
    """One cell of the partition tree: what its tree document records."""

    node_id: int
    cell: Cell
    depth: int
    weight: float
    v_hat: float
    split: tuple[int, int] | None = None
    children: tuple[int, int] | None = None
    median: Permutation | None = None

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
    gram_rows: int = 0  # sample rows multiplied into Gram matrices this round
    kept_bytes: int = 0  # bytes of Gram matrices carried into the next round


@dataclass(frozen=True)
class GrowthTrace:
    steps: tuple[GrowthStep, ...]

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


class CoastTree:
    """An immutable grown partition tree.

    ``frontier`` is the set of node ids acting as leaves; pruned subtrees
    share the node list with the tree they came from and differ only in the
    frontier, so nested sequences are cheap.
    """

    def __init__(self, n: int, nodes: list[CoastNode], frontier, aggregator=None):
        self.n = int(n)
        self.nodes = nodes
        self.frontier = tuple(sorted(frontier))
        self.aggregator = aggregator

    @cached_property
    def _frontier_set(self) -> frozenset:
        return frozenset(self.frontier)

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

    def _leaf_rows(self, s: RankingSample):
        """Vectorized routing: each frontier leaf's id and its sample rows, in
        increasing order."""
        if s.n != self.n:
            raise RejectedInputError("sample dimension mismatch")
        r = s.ranks_matrix
        stack = [(0, np.arange(len(s)))]
        while stack:
            nid, idx = stack.pop()
            if nid in self._frontier_set:
                yield nid, idx
                continue
            node = self.nodes[nid]
            bits = _before(r, idx, node.split)  # child 0 keeps split[0] before split[1]
            stack.append((node.children[0], idx[bits]))
            stack.append((node.children[1], idx[~bits]))

    def route_sample(self, s: RankingSample) -> np.ndarray:
        """Leaf node id per sample row."""
        out = np.empty(len(s), dtype=np.int64)
        for nid, idx in self._leaf_rows(s):
            out[idx] = nid
        return out

    def leaf_counts(self, s: RankingSample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Leaf node id per row; per frontier leaf, its row count and column counts.

        Each leaf's counts are summed from its own rows' comparison blocks,
        in integers (``perms.comparison_counts``), as routing reaches it.
        """
        leaf_of = np.empty(len(s), dtype=np.int64)
        sizes = np.zeros(self.leaf_count, dtype=np.int64)
        counts = np.zeros((self.leaf_count, num_pairs(self.n)), dtype=np.int64)
        for nid, idx in self._leaf_rows(s):
            k = bisect_left(self.frontier, nid)  # the frontier is sorted
            leaf_of[idx], sizes[k], counts[k] = nid, len(idx), comparison_counts(s.ranks_matrix, idx)
        return leaf_of, sizes, counts

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
        order = [0]  # breadth first; each node has one parent, so no node is seen twice
        for nid in order:
            if nid not in self._frontier_set:
                order.extend(self.nodes[nid].children or ())
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
            n = json_int(obj["n"], "tree n")
            raw = list(obj["nodes"])
        except (KeyError, TypeError, ValueError) as exc:
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
    nid = json_int(r["id"], f"tree node at position {pos}: id")
    for key in ("constraints", "weight", "v_hat"):
        if key not in r:
            raise RejectedInputError(f"tree node {nid}: missing {key!r}")
    try:
        cell = Cell.from_json_obj(n, r["constraints"])
        split, children, median = r.get("split"), r.get("children"), r.get("median")
        if (split is None) != (children is None):
            raise ValueError("split and children must be given together")
        if split is not None:
            i, j = (json_int(v, "split entry") for v in split)
            if i == j or not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"split {[i, j]} needs two distinct items in 1..{n}")
            a, b = (json_int(v, "children entry") for v in children)
            # child 0 holds "split[0] before split[1]": flip both to keep i < j
            split, children = ((i - 1, j - 1), (a, b)) if i < j else ((j - 1, i - 1), (b, a))
        weight, v_hat = float(r["weight"]), float(r["v_hat"])
        for key, v in (("weight", weight), ("v_hat", v_hat)):
            if not (math.isfinite(v) and v >= 0.0):  # NaN would pass every later tolerance check
                raise ValueError(f"{key} must be finite and >= 0, got {v!r}")
        if median is not None:
            median = Permutation.from_one_based(median, "median")
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


#: Rows per upper panel of a Gram matrix.
_GRAM_PANEL = 256

#: Base of a packed Gram operand row: a low panel row plus this times a high one.
_PACK_BASE = 1 << 12

#: Panel rows per int64 block when summing a Gram matrix's rows.
_SCORE_ROWS = 64

#: Bytes of Gram matrices that grow keeps from one round to the next, so that
#: a child's matrix comes from its parent's minus its sibling's.
_GRAM_KEEP_BYTES = 1 << 30


def _gram(ranks: np.ndarray, rows: np.ndarray) -> list[np.ndarray]:
    """X'X over the comparison rows of ranks[rows], as its upper panels
    G[p:p+_GRAM_PANEL, p:], in unsigned counts of the smallest type that
    holds len(rows).

    The rows are split into blocks of at most comparison_rows(n), all of
    about one size. Each block is built straight into one float32 (C, block)
    buffer and multiplied into each panel with one product.

    Every panel but the last is packed: its R = _GRAM_PANEL rows become one
    half-height operand, its first h = ⌈R/2⌉ rows plus _PACK_BASE = 2**12
    times its last R - h. One product entry v is then a low row's count
    plus 2**12 times a high row's. Blocks are capped at 4,095 rows when a
    panel is packed, so both counts are at most 4,095 and every partial sum
    is an integer of at most 4,095 + 4,096·4,095 = 2**24 - 1, exact in
    float32 whatever the BLAS summation order or thread count. v & 4095 is
    the low row's count and v >> 12 the high row's. The last panel is square
    and keeps numpy's symmetric product, which already halves its work; at
    C ≤ _GRAM_PANEL (n ≤ 23) it is the only panel. np.add casts each block's
    counts to the panels' type and adds them in it. Two buffers, reused
    across panels and blocks, hold the operand, the products and the decoded
    counts.
    """
    c = num_pairs(ranks.shape[1])
    dtype = np.min_scalar_type(len(rows))
    starts = range(0, c, _GRAM_PANEL)
    panels = [np.zeros((min(_GRAM_PANEL, c - p), c - p), dtype) for p in starts]
    h, k = -(-_GRAM_PANEL // 2), _GRAM_PANEL // 2  # a packed panel's low and high rows
    lows = h if len(panels) > 1 else 0  # a lone panel is square and packs nothing
    cap = comparison_rows(ranks.shape[1])
    blocks = -(-len(rows) // (min(cap, _PACK_BASE - 1) if lows else cap))
    step = -(-len(rows) // blocks)
    last = len(panels[-1])
    buf = np.empty((c, step), dtype=np.float32)
    product = np.empty(max(lows * c, last * last), dtype=np.float32)
    spare = np.empty(lows * max(c, step), dtype=np.float32)  # the operand, then the counts
    for start in range(0, len(rows), step):
        chunk = rows[start : start + step]
        xt = buf[:, : len(chunk)]
        comparison_block(ranks, chunk, xt)
        for p, panel in zip(starts, panels[:-1]):
            a = spare[: h * len(chunk)].reshape(h, len(chunk))
            np.multiply(xt[p + h : p + _GRAM_PANEL], _PACK_BASE, out=a[:k])
            np.add(a[:k], xt[p : p + k], out=a[:k])
            a[k:] = xt[p + k : p + h]  # an odd panel's middle row has no high partner
            v = np.matmul(a, xt[p:].T, out=product[: h * (c - p)].reshape(h, c - p))
            # the operand is spent, so its buffer takes the counts, and once they
            # are read, the product's buffer takes the high rows' counts
            low = spare.view(np.int32)[: h * (c - p)].reshape(h, c - p)
            np.copyto(low, v, casting="unsafe")
            high = v.view(np.int32)
            np.right_shift(low[:k], 12, out=high[:k])
            np.add(panel[h:], high[:k], out=panel[h:], casting="unsafe", dtype=dtype)
            np.bitwise_and(low, _PACK_BASE - 1, out=low)
            np.add(panel[:h], low, out=panel[:h], casting="unsafe", dtype=dtype)
        a = xt[c - last :]
        v = np.matmul(a, a.T, out=product[: last * last].reshape(last, last))
        np.add(panels[-1], v, out=panels[-1], casting="unsafe", dtype=dtype)
    return panels


def _gram_row(gram: list[np.ndarray], col: int) -> np.ndarray:
    """Row ``col`` of the Gram matrix held as upper panels, in int64: the
    panels above its own give its entries left of that panel by symmetry."""
    k = col // _GRAM_PANEL
    above = [panel[:, col - i * _GRAM_PANEL] for i, panel in enumerate(gram[:k])]
    return np.concatenate(above + [gram[k][col - k * _GRAM_PANEL]]).astype(np.int64)


def _split_sums(
    gram: list[np.ndarray], t: np.ndarray, m: int, candidates: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows and pair-distance sums of both children of each candidate split.

    Candidate k's Gram row G holds child 0's column counts and t - G child
    1's. With r = ΣG, q = ΣG² and m0 = t[k], m1 = m - m0:
    s0 = Σ G·(m0 - G) = m0·r - q and
    s1 = Σ (t - G)·(m1 - t + G) = m1·Σt - Σt² + 2·G·t - m1·r - q.
    r, q and G·t are summed for every column from the upper panels: a
    panel's rows give their own rows' sums over columns p.., and its part
    right of the diagonal block, read down its columns, the later rows' sums
    over the panel's columns. Panel rows are read in int64 blocks of
    _SCORE_ROWS, so every term is exact and no panel-sized integer temporary
    is made.
    """
    c = len(t)
    r, q, gt = (np.zeros(c, dtype=np.int64) for _ in range(3))
    for p, panel in zip(range(0, c, _GRAM_PANEL), gram):
        end = p + len(panel)
        for start in range(0, len(panel), _SCORE_ROWS):
            g = panel[start : start + _SCORE_ROWS].astype(np.int64)
            rows = slice(p + start, p + start + len(g))
            r[rows] += g.sum(axis=1)
            q[rows] += np.einsum("ij,ij->i", g, g)
            gt[rows] += g @ t[p:]
            right = g[:, end - p :]
            r[end:] += right.sum(axis=0)
            q[end:] += np.einsum("ij,ij->j", right, right)
            gt[end:] += t[rows] @ right
    m0 = t[candidates]
    m1 = m - m0
    r, q, gt = r[candidates], q[candidates], gt[candidates]
    s0 = m0 * r - q
    s1 = m1 * t.sum() - (t * t).sum() + 2 * gt - m1 * r - q
    return m0, m1, s0, s1


@dataclass(frozen=True)
class _SplitPlan:
    pair: tuple[int, int]
    reduction: float  # parent score minus both child scores (N-free units)
    child_counts: tuple[np.ndarray, np.ndarray]


def _plan_min_distortion(
    gram: list[np.ndarray], m: int, t: np.ndarray, pairs: list[tuple[int, int]]
) -> _SplitPlan:
    """Best split of a node of m rows with column counts t (the diagonal of
    its Gram matrix X'X) from the upper panels of that matrix. A node with
    v_hat > 0 has a column its rows disagree on, and all such are admissible.
    """
    candidates = np.nonzero((t > 0) & (t < m))[0]
    m0, m1, s0, s1 = _split_sums(gram, t, m, candidates)
    score = _child_score(m0, s0) + _child_score(m1, s1)
    k = int(np.argmin(score))  # first minimum = lexicographic tie-break
    col = int(candidates[k])
    c0 = _gram_row(gram, col)
    return _SplitPlan(
        pair=pairs[col],
        reduction=float(_score(m, t) - score[k]),
        child_counts=(c0, t - c0),
    )


def _plan_balanced(
    ranks: np.ndarray, rows: np.ndarray, t: np.ndarray, pairs: list[tuple[int, int]]
) -> _SplitPlan:
    """The split of a node, whose sample rows are ``rows`` and column counts t,
    nearest to halving them."""
    m = len(rows)
    candidates = np.nonzero((t > 0) & (t < m))[0]
    k = int(np.argmin(np.abs(t[candidates] / m - 0.5)))
    pair = pairs[int(candidates[k])]
    rows0 = rows[_before(ranks, rows, pair)]
    m0, c0 = len(rows0), comparison_counts(ranks, rows0)
    m1, c1 = m - m0, t - c0
    return _SplitPlan(
        pair=pair,
        reduction=float(_score(m, t) - (_score(m0, c0) + _score(m1, c1))),
        child_counts=(c0, c1),
    )


def _before(ranks: np.ndarray, rows: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """Which of the given rows rank pair[0] before pair[1]: one comparison column."""
    return ranks[rows, pair[0]] < ranks[rows, pair[1]]


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
    r = s.ranks_matrix

    t0 = time.perf_counter()
    rows = {0: np.arange(n_total)}  # the sample rows of each leaf
    counts = {0: comparison_counts(r, rows[0])}  # and their int64 column counts
    root = CoastNode(
        node_id=0,
        cell=Cell.root(s.n),
        depth=0,
        weight=1.0,
        v_hat=v_hat_of_counts(counts[0], n_total),
    )
    nodes = [root]
    frontier: set[int] = {0}
    cols = len(pairs)
    gram_size = sum(min(_GRAM_PANEL, cols - p) * (cols - p) for p in range(0, cols, _GRAM_PANEL))
    steps = [GrowthStep(0, 1, root.contribution, (), time.perf_counter() - t0)]
    # A plan depends only on its leaf's rows, so each leaf is planned once: a
    # leaf planned but not yet split keeps its plan here, with its Gram matrix
    # if that is kept for its children.
    plans: dict[int, tuple[_SplitPlan, list | None]] = {}
    kept: dict[int, list] = {}  # Gram matrices of the nodes split last round
    keep: set[int] = set()  # leaves planned this round whose Gram matrices are kept

    def plan(ids: list[int], parent: int | None = None) -> None:
        """Plan one leaf from its Gram matrix, or the given children of a kept parent.

        A parent's smaller child's matrix is built from its rows (ties go to
        child 0) and the other's by subtracting it from the parent's in
        place; the small child's rows are some of the parent's, so its counts
        fit the parent's type and none underflows. The parent's matrix is
        freed before the build if the large child is not planned, and each
        matrix once its leaf is planned, unless the leaf is in ``keep``.
        """
        nonlocal gram_rows
        small, large, grams = ids[0], None, {}
        if parent is not None:
            c0, c1 = nodes[parent].children
            small, large = (c0, c1) if len(rows[c0]) <= len(rows[c1]) else (c1, c0)
            if large in ids:
                grams[large] = kept.pop(parent)
            else:
                del kept[parent]
        gram_rows += len(rows[small])
        grams[small] = _gram(r, rows[small])
        if large in grams:
            for big, part in zip(grams[large], grams[small]):
                big -= part
        for nid in ids:
            gram = grams.pop(nid)
            split = _plan_min_distortion(gram, len(rows[nid]), counts[nid], pairs)
            plans[nid] = (split, gram if nid in keep else None)

    while True:
        t_iter = time.perf_counter()
        gram_rows = 0
        eligible = sorted(
            nid
            for nid in frontier
            if nodes[nid].v_hat > epsilon and len(rows[nid]) >= 2
        )
        if not eligible:
            break
        # every eligible leaf splits (or only the best one), so check the
        # leaf budget before planning rather than discard a round of plans
        leaves = len(frontier) + (1 if one_split_per_iter else len(eligible))
        if leaves > max_leaves:
            break
        if leaves == max_leaves:  # the last round keeps no Gram matrix
            plans = {nid: (plans[nid][0], None) for nid in plans}
        to_plan = [nid for nid in eligible if nid not in plans]
        if rule is SplitRule.BALANCED:
            for nid in to_plan:
                plans[nid] = (_plan_balanced(r, rows[nid], counts[nid], pairs), None)
        else:
            held = sum(a.nbytes for _, g in plans.values() if g is not None for a in g)
            spare = _GRAM_KEEP_BYTES - held if leaves < max_leaves else 0
            keep.clear()
            for nid in to_plan:
                size = gram_size * np.min_scalar_type(len(rows[nid])).itemsize
                if size <= spare:
                    keep.add(nid)
                    spare -= size
            # a kept parent none of whose children is planned is freed first
            for pid in [pid for pid in kept if set(nodes[pid].children).isdisjoint(to_plan)]:
                del kept[pid]
            derived = {c for pid in kept for c in nodes[pid].children}
            # cheapest build first, so that the costliest runs with the fewest parents held
            for pid in sorted(kept, key=lambda p: min(len(rows[c]) for c in nodes[p].children)):
                plan([c for c in nodes[pid].children if c in to_plan], pid)
            for nid in to_plan:
                if nid not in derived:
                    plan([nid])

        if one_split_per_iter:
            split_ids = [max(plans, key=lambda nid: (plans[nid][0].reduction, -nid))]
        else:
            split_ids = sorted(plans)
        kept = {nid: plans[nid][1] for nid in split_ids if plans[nid][1] is not None}
        kept_bytes = sum(a.nbytes for _, g in plans.values() if g is not None for a in g)
        for nid in split_ids:
            split = plans.pop(nid)[0]
            parent = nodes[nid]
            idx = rows.pop(nid)
            del counts[nid]
            bits = _before(r, idx, split.pair)
            parent.split = split.pair
            parent.children = (len(nodes), len(nodes) + 1)
            for side, cell in enumerate(parent.cell.split(split.pair)):
                rows[len(nodes)] = idx[bits] if side == 0 else idx[~bits]
                cm, cc = len(rows[len(nodes)]), split.child_counts[side]
                counts[len(nodes)] = cc
                nodes.append(
                    CoastNode(
                        node_id=len(nodes),
                        cell=cell,
                        depth=parent.depth + 1,
                        weight=cm / n_total,
                        v_hat=v_hat_of_counts(cc, cm),
                    )
                )
            frontier.remove(nid)
            frontier.update(parent.children)
        steps.append(
            GrowthStep(
                len(steps),
                len(frontier),
                sum(nodes[i].contribution for i in frontier),
                tuple((nid, nodes[nid].split) for nid in split_ids),
                time.perf_counter() - t_iter,
                gram_rows,
                kept_bytes,
            )
        )
    kept.clear()  # free the Gram matrices before aggregating
    plans.clear()

    for nid in sorted(frontier):
        m = len(rows.pop(nid))
        nodes[nid].median = agg(PairwiseMatrix.from_counts(s.n, counts.pop(nid), m), nid)
    tree = CoastTree(s.n, nodes, frontier, aggregator=agg)
    return tree, GrowthTrace(tuple(steps))


# --- pruning and selection ----------------------------------------------------


def prune_sequence(tree: CoastTree, s: RankingSample) -> list[CoastTree]:
    """Weakest-link collapse sequence T_K ⊃ T_{K-1} ⊃ … ⊃ T_1 (root).

    Each step collapses the internal node, with both children in the
    current frontier, whose removal increases the partition criterion the
    least, ties to the smaller node id. That increase is fixed by the node
    and its children, so such a node enters a heap of (increase, node id)
    once, when its second child becomes a leaf. A collapsed node without a
    median gets one from the column counts of its rows: the sample is routed
    once, and a collapsed node's counts are its children's sums. Every
    subtree shares the tree's node list.
    """
    agg = tree.aggregator or make_aggregator("auto", seed=0)
    # only frontier nodes and the nodes above them are ever looked up
    parent_of = {c: p for p, node in enumerate(tree.nodes) for c in node.children or ()}
    _, sizes, leaf_cnt = tree.leaf_counts(s)
    rows = {nid: (int(m), c) for nid, m, c in zip(tree.frontier, sizes, leaf_cnt)}
    frontier = set(tree.frontier)
    seq = [tree]
    heap = []

    def push(p):  # p enters the heap once both of its children are leaves
        node = tree.nodes[p]
        if frontier.issuperset(node.children):
            a, b = (tree.nodes[c].contribution for c in node.children)
            heapq.heappush(heap, (node.contribution - a - b, p))

    for p in {parent_of[nid] for nid in frontier if nid in parent_of}:
        push(p)
    while heap:
        victim = heapq.heappop(heap)[1]
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
        if victim in parent_of:
            push(parent_of[victim])
    return seq


def select_subtree(seq: list[CoastTree], lam: float) -> CoastTree:
    """Minimizer of criterion + lam * leaf_count; ties go to fewer leaves."""
    if not seq:
        raise RejectedInputError("empty subtree sequence")
    if not (isinstance(lam, (int, float)) and lam >= 0):
        raise RejectedInputError(f"lambda must be a real >= 0, got {lam!r}")
    return min(seq, key=lambda t: (t.criterion + lam * t.leaf_count, t.leaf_count))
