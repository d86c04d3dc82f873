"""Cells: subsets of rankings carved out by pairwise order constraints.

A cell is the set of permutations satisfying a conjunction of constraints
"item a ranked before item b". Constraints are stored as the raw chosen
pairs; the transitive closure is kept alongside so admissibility checks are
O(1) and cycles are impossible by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InadmissiblePairError,
    PartitionIntegrityError,
    RejectedInputError,
    json_int,
)
from .perms import Permutation, RankingSample


def _closure_of(n: int, edges) -> np.ndarray:
    """Transitive closure of a constraint edge set as a boolean matrix."""
    c = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        c[a, b] = True
    while True:
        nxt = c | ((c.astype(np.uint8) @ c.astype(np.uint8)) > 0)
        if np.array_equal(nxt, c):
            return c
        c = nxt


@dataclass(frozen=True)
class Cell:
    """A pairwise-constraint cell of the symmetric group on n items."""

    n: int
    constraints: frozenset[tuple[int, int]] = frozenset()
    closure: np.ndarray = field(default=None, compare=False, repr=False, hash=False)

    def __post_init__(self):
        if self.n < 1:
            raise RejectedInputError("cell needs n >= 1")
        cons = frozenset((int(a), int(b)) for a, b in self.constraints)
        object.__setattr__(self, "constraints", cons)
        for a, b in cons:
            if not (0 <= a < self.n and 0 <= b < self.n) or a == b:
                raise RejectedInputError(f"bad constraint pair {(a, b)} for n={self.n}")
        if self.closure is None:
            closure = _closure_of(self.n, cons)
            object.__setattr__(self, "closure", closure)
        if bool(np.any(np.diag(self.closure))):
            raise RejectedInputError(f"cyclic constraints: {sorted(cons)}")
        self.closure.setflags(write=False)

    @classmethod
    def root(cls, n: int) -> "Cell":
        return cls(n, frozenset())

    def contains(self, sigma: Permutation) -> bool:
        if sigma.n != self.n:
            raise DimensionMismatchError("cell_contains: size mismatch")
        r = sigma.ranks
        return all(r[a] < r[b] for a, b in self.constraints)

    def membership_mask(self, s: RankingSample) -> np.ndarray:
        """Boolean mask of sample rows lying in this cell."""
        if s.n != self.n:
            raise DimensionMismatchError("membership: size mismatch")
        return self.rank_mask(s.ranks_matrix)

    def rank_mask(self, ranks: np.ndarray) -> np.ndarray:
        """Which rows of a rank matrix lie in this cell: two rank columns per constraint."""
        mask = np.ones(len(ranks), dtype=bool)
        for a, b in self.constraints:
            mask &= ranks[:, a] < ranks[:, b]
        return mask

    def is_admissible(self, i: int, j: int) -> bool:
        return not self.closure[i, j] and not self.closure[j, i]

    def split(self, pair: tuple[int, int]) -> tuple["Cell", "Cell"]:
        """Split on an admissible pair; child 0 orders i before j."""
        i, j = int(pair[0]), int(pair[1])
        if not (0 <= i < self.n and 0 <= j < self.n) or i == j:
            raise RejectedInputError(f"bad split pair {(i, j)}")
        if not self.is_admissible(i, j):
            raise InadmissiblePairError(f"pair {(i, j)} already ordered by the cell")
        return self._child(i, j), self._child(j, i)

    def _child(self, a: int, b: int) -> "Cell":
        # incremental closure: everything reaching a now reaches past b
        anc = self.closure[:, a].copy()
        anc[a] = True
        desc = self.closure[b, :].copy()
        desc[b] = True
        closure = self.closure | np.outer(anc, desc)
        return Cell(self.n, self.constraints | {(a, b)}, closure)

    def to_json_obj(self) -> list[list[int]]:
        """Constraint list with 1-based items, sorted for determinism."""
        return [[a + 1, b + 1] for a, b in sorted(self.constraints)]

    @classmethod
    def from_json_obj(cls, n: int, obj) -> "Cell":
        pairs = [[json_int(v, "constraint entry") - 1 for v in pair] for pair in obj]
        return cls(n, frozenset((a, b) for a, b in pairs))


def pair_distance_sum(counts: np.ndarray, m: int) -> int:
    """Sum of Kendall distances over all pairs of m rankings, from their column counts.

    Rankings that disagree on comparison column p come in counts[p] * (m - counts[p])
    pairs, so no m x m distance matrix is needed.
    """
    return int((counts * (m - counts)).sum())


def v_hat_of_counts(counts: np.ndarray, m: int) -> float:
    """Cell variability estimate of m rankings: sum of pairwise distances over m(m-1)."""
    return pair_distance_sum(counts, m) / (m * (m - 1)) if m >= 2 else 0.0


def tile_owners(masks) -> np.ndarray:
    """Index of the one mask holding each row, given one boolean row mask per cell.

    Raises PartitionIntegrityError unless the masks tile the rows.
    """
    if not masks:
        raise PartitionIntegrityError("no cells given")
    owners = np.full(len(masks[0]), -1, dtype=np.int64)
    cover = np.zeros(len(masks[0]), dtype=np.int64)
    for ci, mask in enumerate(masks):
        owners[mask] = ci
        cover += mask
    if np.any(cover != 1):
        over = int(np.sum(cover > 1))
        under = int(np.sum(cover == 0))
        raise PartitionIntegrityError(
            f"cells do not tile the rankings: {over} multiply covered, {under} uncovered"
        )
    return owners
