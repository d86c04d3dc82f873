"""Core permutation types and Kendall-tau machinery.

Rankings are full (no ties). A permutation maps items to ranks; internally
items and ranks are both 0-based, and every external surface (files, JSON,
CLI) is 1-based. Conversions happen only at those boundaries.

Pairwise structure is central: a ranking is equivalently its comparison
vector over the ``C(n,2)`` item pairs in lexicographic order, and the
Kendall tau distance is the Hamming distance between comparison vectors.
Bulk operations exploit that representation. A sample keeps only its rank
matrix; ``comparison_block`` builds the comparison rows of one row block
from it at a time, so no N×C(n,2) matrix is ever held for a sample.

``symmetric_group(n)`` is the one enumeration of S_n that the package
computes with: a cached table of all n! rank vectors and their comparison
rows. Exact medians, cell members, uniform cell marginals, smoothing scores
and the Mallows distribution are all masks and products over it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from .errors import (
    DimensionMismatchError,
    EnumerationLimitError,
    RejectedInputError,
    json_int,
)

#: Default cap for exact enumerations of the symmetric group.
ENUMERATION_LIMIT = 9


def num_pairs(n: int) -> int:
    return n * (n - 1) // 2


def pair_list(n: int) -> list[tuple[int, int]]:
    """All item pairs (i, j), i < j, in lexicographic order."""
    return list(itertools.combinations(range(n), 2))


@cache
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(n, 1)``: the pairs of pair_list as two index arrays."""
    i, j = np.triu_indices(n, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


@dataclass(frozen=True)
class Permutation:
    """A full ranking of n items; ``ranks[i]`` is the 0-based rank of item i."""

    ranks: tuple[int, ...]

    @classmethod
    def _trusted(cls, ranks) -> "Permutation":
        """Wrap ranks already known to be a permutation of 0..n-1, unchecked."""
        p = object.__new__(cls)
        object.__setattr__(p, "ranks", tuple(ranks))
        return p

    def __post_init__(self):
        r = self.ranks
        if not isinstance(r, tuple):
            r = tuple(int(x) for x in r)
            object.__setattr__(self, "ranks", r)
        n = len(r)
        if n < 1 or sorted(r) != list(range(n)):
            raise RejectedInputError(f"not a permutation of 0..{n - 1}: {r!r}")

    @property
    def n(self) -> int:
        return len(self.ranks)

    def ordering(self) -> tuple[int, ...]:
        """Items listed from rank 0 to rank n-1 (most preferred first)."""
        out = [0] * self.n
        for item, rank in enumerate(self.ranks):
            out[rank] = item
        return tuple(out)

    @classmethod
    def from_ordering(cls, items) -> "Permutation":
        items = tuple(int(x) for x in items)
        ranks = [0] * len(items)
        seen = set()
        for rank, item in enumerate(items):
            if item < 0 or item >= len(items) or item in seen:
                raise RejectedInputError(f"not an ordering of 0..{len(items) - 1}: {items!r}")
            seen.add(item)
            ranks[item] = rank
        return cls(tuple(ranks))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def from_one_based(cls, seq, field: str = "rank") -> "Permutation":
        """The permutation of a document's 1-based ranks; each must be a JSON integer."""
        return cls(tuple(json_int(x, f"{field} entry") - 1 for x in seq))

    def to_one_based(self) -> tuple[int, ...]:
        return tuple(r + 1 for r in self.ranks)

    def comparison_bits(self) -> tuple[int, ...]:
        """1 where i is ranked before j, over lexicographic pairs (i, j)."""
        r = self.ranks
        return tuple(1 if r[i] < r[j] else 0 for i, j in itertools.combinations(range(self.n), 2))


def kendall_tau(a: Permutation, b: Permutation) -> int:
    """Kendall tau distance: the Hamming distance between the comparison rows."""
    if a.n != b.n:
        raise DimensionMismatchError(f"kendall_tau: {a.n} vs {b.n} items")
    return sum(x != y for x, y in zip(a.comparison_bits(), b.comparison_bits()))


def comparison_matrix(ranks: np.ndarray) -> np.ndarray:
    """Boolean (N, C(n,2)) matrix of 'i before j' bits over lexicographic pairs.

    The result is Fortran-ordered, as comparison_block lays it out. It is for
    small rank tables (the S_n table, distribution supports); an N-row sample
    is read a row block at a time instead.
    """
    out = np.empty((num_pairs(ranks.shape[1]), ranks.shape[0]), dtype=bool)
    return comparison_block(ranks, slice(None), out)


def comparison_block(ranks: np.ndarray, rows, out: np.ndarray) -> np.ndarray:
    """The comparison rows of ``ranks[rows]``, written into ``out`` and returned as ``out.T``.

    ``out`` is a caller-owned (C(n,2), len(rows)) array, bool or float: the
    block's transpose, filled one item at a time, part i holding item i
    against items i+1..n-1, so no (rows, C(n,2)) gather of ranks is made.
    The rows are ranks 0..n-1, compared in the smallest unsigned type that
    holds them.
    """
    n, col = ranks.shape[1], 0
    by_item = np.ascontiguousarray(ranks[rows].T, dtype=np.min_scalar_type(max(n - 1, 0)))
    for i in range(n - 1):
        np.less(by_item[i], by_item[i + 1 :], out=out[col : col + n - 1 - i])
        col += n - 1 - i
    return out.T


#: Comparison entries (rows × C(n,2)) per row block of a pass over a
#: sample's comparison rows: about 1 MB of bools, 4 MB as float32, and at
#: most 2**20 rows, so a float32 product over one block counts exactly.
COMPARISON_ENTRIES = 1 << 20


def comparison_rows(n: int) -> int:
    """Rows in one block of comparison rows over n items: COMPARISON_ENTRIES entries, at least one row."""
    return max(1, COMPARISON_ENTRIES // max(num_pairs(n), 1))


def comparison_counts(ranks: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per-pair int64 'i before j' counts over ``ranks[rows]``, summed one bool block at a time.

    A block's bools are added as bytes, eight rows to a uint64 word: a byte
    of a sum of at most 255 words is at most 255, so no byte carries into
    the next, and the bytes of those sums add up to the counts.
    """
    c, step = num_pairs(ranks.shape[1]), comparison_rows(ranks.shape[1])
    counts = np.zeros(c, dtype=np.int64)
    buf = np.empty((c, -(-min(len(rows), step) // 8) * 8), dtype=bool)
    words = buf.view(np.uint64)
    starts = np.arange(0, words.shape[1], 255)
    for start in range(0, len(rows), step):
        chunk = rows[start : start + step]
        comparison_block(ranks, chunk, buf[:, : len(chunk)])
        buf[:, len(chunk) :] = False  # the padding, or the last block's stale tail
        sums = np.add.reduceat(words, starts, axis=1).view(np.uint8)
        counts += sums.reshape(c, len(starts) * 8).sum(axis=1, dtype=np.int64)
    return counts


def hamming_cross(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distances between rows of two boolean matrices."""
    a = xa.astype(np.float64)
    b = xb.astype(np.float64)
    # disagreements = a(1-b)' + (1-a)b'
    return np.rint(a @ (1.0 - b.T) + (1.0 - a) @ b.T).astype(np.int64)


@lru_cache(maxsize=1)
def symmetric_group(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All n! rank vectors in lexicographic order, with their boolean comparison rows.

    The pair is n!·(n + C(n,2)) bytes: 250 KB at n = 7, 16 MB at n = 9.
    Raises EnumerationLimitError when n exceeds ENUMERATION_LIMIT.
    """
    if n > ENUMERATION_LIMIT:
        raise EnumerationLimitError(f"n={n} exceeds enumeration limit {ENUMERATION_LIMIT}")
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    ranks = np.fromiter(flat, dtype=np.uint8, count=math.factorial(n) * n).reshape(-1, n)
    cmp = comparison_matrix(ranks)
    ranks.setflags(write=False)
    cmp.setflags(write=False)
    return ranks, cmp


#: Entries per row block of ``inverse_rows`` and of other row-by-row passes
#: over an (N, n) array, so their temporaries stay a fixed size.
BLOCK_ENTRIES = 1 << 16


def block_rows(n: int) -> int:
    """Rows in one block of an array with n columns: BLOCK_ENTRIES entries, at least one row."""
    return max(1, BLOCK_ENTRIES // max(n, 1))


def inverse_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise int32 inverse of an (N, n) integer array.

    A row that is not a permutation of 0..n-1 keeps a -1 somewhere, so the
    same scatter checks the rows and inverts them. The scatter runs a row
    block at a time, so its int64 slots never exceed one block.
    """
    size, n = a.shape
    inv = np.full(a.shape, -1, dtype=np.int32)
    if inv.size == 0:
        return inv
    step = block_rows(n)
    offsets = np.arange(min(size, step))[:, None] * n
    values = np.arange(n, dtype=np.int32)
    for start in range(0, size, step):
        block, out = a[start : start + step], inv[start : start + step].ravel()
        if block.min() >= 0 and block.max() < n:
            out[block + offsets[: len(block)]] = values
        else:
            # rows holding out-of-range values are left out, or a value could land
            # in another row's slots and fill a gap there
            ok = ((block >= 0) & (block < n)).all(axis=1)
            out[block[ok] + offsets[: len(block)][ok]] = values
    return inv


class RankingSample:
    """An immutable batch of N full rankings over the same n items.

    The (N, n) matrix of 0-based ranks is the only state: comparison rows
    are built from it a row block at a time (``comparison_block``), and never
    stored. ``Permutation`` objects are built only when ``rankings`` or
    indexing asks for them.
    """

    def __init__(self, rankings, labels=None):
        rankings = tuple(rankings)
        if not rankings:
            raise RejectedInputError("empty sample")
        n = rankings[0].n
        for p in rankings:
            if not isinstance(p, Permutation):
                raise RejectedInputError(f"not a Permutation: {p!r}")
            if p.n != n:
                raise DimensionMismatchError(f"sample mixes n={n} and n={p.n}")
        self._set_state(np.array([p.ranks for p in rankings], dtype=np.int32), labels)
        self.__dict__["rankings"] = rankings

    @classmethod
    def from_ranks(cls, ranks, labels=None) -> "RankingSample":
        """Build from an (N, n) integer array of 0-based ranks, one row per ranking.

        The whole array is checked at once; a row that is not a permutation
        of 0..n-1 raises RejectedInputError naming the first such row.
        """
        a = np.asarray(ranks)
        if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
            raise RejectedInputError(f"need a nonempty (N, n) rank array, got shape {a.shape}")
        if not np.issubdtype(a.dtype, np.integer):
            raise RejectedInputError(f"ranks must be integers, got dtype {a.dtype}")
        bad = np.flatnonzero((inverse_rows(a) < 0).any(axis=1))
        if bad.size:
            k = int(bad[0])
            raise RejectedInputError(
                f"row {k} is not a permutation of 0..{a.shape[1] - 1}: {a[k].tolist()!r}"
            )
        return cls._trusted(a.astype(np.int32), labels)

    @classmethod
    def _trusted(cls, ranks: np.ndarray, labels=None) -> "RankingSample":
        """Wrap an (N, n) int32 rank array whose rows are known permutations; takes ownership."""
        s = cls.__new__(cls)
        s._set_state(ranks, labels)
        return s

    def _set_state(self, ranks: np.ndarray, labels) -> None:
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != ranks.shape[0]:
                raise DimensionMismatchError("labels length != sample size")
        ranks.setflags(write=False)
        self._ranks = ranks
        self._labels = labels

    @property
    def n(self) -> int:
        return self._ranks.shape[1]

    @property
    def size(self) -> int:
        return self._ranks.shape[0]

    @cached_property
    def rankings(self) -> tuple[Permutation, ...]:
        return tuple(map(Permutation._trusted, self._ranks.tolist()))

    @property
    def labels(self):
        return self._labels

    @property
    def ranks_matrix(self) -> np.ndarray:
        return self._ranks

    def __len__(self) -> int:
        return self._ranks.shape[0]

    def __getitem__(self, i):
        if "rankings" in self.__dict__ or isinstance(i, slice):
            return self.rankings[i]
        return Permutation._trusted(self._ranks[i].tolist())

    def subset(self, indices) -> "RankingSample":
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size == 0:
            raise RejectedInputError("empty sample")
        labels = None if self._labels is None else tuple(self._labels[i] for i in idx.tolist())
        return RankingSample._trusted(self._ranks[idx], labels)


@dataclass(frozen=True, eq=False)
class PairwiseMatrix:
    """Pairwise order marginals: p[i, j] = P(item i ranked before item j)."""

    n: int
    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        object.__setattr__(self, "p", p)
        if p.shape != (self.n, self.n):
            raise DimensionMismatchError(f"marginal matrix shape {p.shape} != ({self.n}, {self.n})")
        _check_unit(p)
        if np.max(np.abs(p + p.T - 1.0)) > 1e-12:
            raise RejectedInputError("marginals violate p[i,j] + p[j,i] = 1")
        if np.max(np.abs(np.diag(p) - 0.5)) > 0:
            raise RejectedInputError("diagonal must be exactly 1/2 by convention")

    def entry(self, i: int, j: int) -> float:
        return float(self.p[i, j])

    def margin(self) -> float:
        """min over i != j of |p[i,j] - 1/2| (the low-noise margin h)."""
        off = ~np.eye(self.n, dtype=bool)
        return float(np.min(np.abs(self.p[off] - 0.5)))

    @classmethod
    def from_comparisons(cls, n: int, x: np.ndarray, weights=None) -> "PairwiseMatrix":
        """Build from a boolean comparison matrix, optionally weighted.

        The upper triangle is the (weighted) mean of each pair column and the
        lower triangle is its exact complement, so p + p.T == 1 holds exactly.
        """
        if weights is None:
            return cls.from_counts(n, x.sum(axis=0), x.shape[0])
        w = np.asarray(weights, dtype=np.float64)
        total = w.sum()
        if x.shape[0] == 0 or total <= 0:
            return cls._from_upper(n, 0.5)
        # in the column-major layout comparison_matrix produces, so the BLAS
        # summation order does not depend on how x was sliced
        return cls._from_upper(n, (w @ x.astype(np.float64, order="F")) / total)

    @classmethod
    def from_counts(cls, n: int, counts, m: int) -> "PairwiseMatrix":
        """Marginals of m rankings from their per-pair 'i before j' counts.

        No rankings (m = 0) give the neutral 1/2 everywhere.
        """
        return cls._from_upper(n, counts / m if m else 0.5)

    @classmethod
    def _from_upper(cls, n: int, upper) -> "PairwiseMatrix":
        """The matrix with the given upper triangle, its exact complement below
        and 1/2 on the diagonal; only ``upper`` needs checking."""
        _check_unit(np.asarray(upper))
        i, j = pair_indices(n)
        p = np.full((n, n), 0.5)
        p[i, j] = upper
        p[j, i] = 1.0 - upper
        m = object.__new__(cls)
        object.__setattr__(m, "n", n)
        object.__setattr__(m, "p", p)
        return m


def _check_unit(p: np.ndarray) -> None:
    """Marginals must be finite and within [0, 1], up to 1e-12 of rounding."""
    if not np.isfinite(p).all():  # every check below is false for NaN
        raise RejectedInputError("marginals must be finite")
    if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
        raise RejectedInputError("marginals outside [0, 1]")


def _rank_rows(perms) -> np.ndarray:
    """The (K, n) int32 rank array of K permutations of one size."""
    try:
        return np.array([p.ranks for p in perms], dtype=np.int32)
    except ValueError:  # a ragged list: the permutations differ in size
        raise DimensionMismatchError("support permutation of wrong size") from None


def _sequential_sum(terms: np.ndarray) -> float:
    """Python's sum of the terms, to the bit: from 0, left to right."""
    return float(np.add.accumulate(np.append(0.0, terms))[-1])


@dataclass(frozen=True, eq=False, init=False)
class DiscreteRankingDistribution:
    """A finitely supported distribution over rankings (distinct support).

    The state is ``ranks``, the read-only (K, n) integer array of the support
    points' ranks; ``support`` builds ``Permutation`` objects only on request.
    ``counts``, when known, are integer multiplicities with weights equal to
    ``counts / counts.sum()``: an empirical distribution's row counts, or the
    row counts of a consensus distribution's cells. Exact transport takes
    them as its integer supplies.
    """

    n: int
    ranks: np.ndarray
    weights: np.ndarray
    counts: np.ndarray | None = None

    def __init__(self, n: int, support, weights, counts=None):
        support = tuple(support)
        ranks = _rank_rows(support)
        self.__dict__.update(n=n, ranks=ranks, weights=weights, counts=counts, support=support)
        self._check(support=True)

    @classmethod
    def _trusted(
        cls, n: int, ranks: np.ndarray, weights, comparisons=None, counts=None
    ) -> "DiscreteRankingDistribution":
        """Wrap a (K, n) array of distinct rank rows as is; only weights and counts are checked.

        ``comparisons``, when given, must be the rows' comparison rows as
        comparison_matrix lays them out (Fortran order, read-only); it seeds
        ``support_comparisons``.
        """
        d = object.__new__(cls)
        d.__dict__.update(n=n, ranks=ranks, weights=weights, counts=counts)
        d._check(support=False)
        if comparisons is not None:
            d.__dict__["support_comparisons"] = comparisons
        return d

    def _check(self, support: bool) -> None:
        """Freeze the ranks, coerce the weights to float64, check both, and the support if asked."""
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        self.ranks.setflags(write=False)
        if self.size == 0:
            raise RejectedInputError("empty support")
        if self.size != w.shape[0]:
            raise DimensionMismatchError("support/weights length mismatch")
        if support:
            if self.ranks.shape[1] != self.n:
                raise DimensionMismatchError("support permutation of wrong size")
            if (inverse_rows(self.ranks) < 0).any():
                raise RejectedInputError("support points must be permutations")
            if len(np.unique(self.ranks, axis=0)) != self.size:
                raise RejectedInputError("support points must be distinct")
        if np.any(w < -1e-15):
            raise RejectedInputError("negative weight")
        if abs(float(w.sum()) - 1.0) > 1e-10:
            raise RejectedInputError(f"weights sum to {w.sum()!r}, not 1")
        if self.counts is not None:
            k = np.asarray(self.counts)
            if k.shape != w.shape or k.dtype.kind not in "iu" or np.any(k < 0) or k.sum() <= 0:
                raise RejectedInputError("counts must be non-negative integers, one per support point")
            k = k.astype(np.int64)
            object.__setattr__(self, "counts", k)
            if np.any(np.abs(w - k / k.sum()) > 1e-12):
                raise RejectedInputError("weights are not counts / counts.sum()")

    @property
    def size(self) -> int:
        return self.ranks.shape[0]

    @cached_property
    def support(self) -> tuple[Permutation, ...]:
        """The support points as Permutation objects, in the order of ``ranks``."""
        return tuple(map(Permutation._trusted, self.ranks.tolist()))

    @classmethod
    def from_pairs(cls, pairs, counts=None) -> "DiscreteRankingDistribution":
        """Build from (permutation, weight) pairs, merging duplicates.

        ``counts``, if given, holds one integer count per pair; merged pairs
        add their counts as they add their weights.
        """
        pairs = list(pairs)
        if not pairs:
            raise RejectedInputError("empty support")
        ranks = _rank_rows(p for p, _ in pairs)
        # np.unique(axis=0)'s order, without its ~0.1-ms cost per call however few the rows
        order = np.lexsort(ranks.T[::-1])
        first = np.append(True, (np.diff(ranks[order], axis=0) != 0).any(axis=1))
        inv = np.empty(len(pairs), dtype=np.intp)
        inv[order] = np.cumsum(first) - 1
        weights = np.bincount(inv, weights=[float(w) for _, w in pairs])
        if counts is not None:  # the float sums of integer counts are exact below 2**53
            counts = np.bincount(inv, [int(c) for c in counts]).astype(np.int64)
        return cls._trusted(ranks.shape[1], ranks[order[first]], weights, counts=counts)

    @classmethod
    def empirical(cls, s: RankingSample) -> "DiscreteRankingDistribution":
        """The empirical distribution of a sample (support sorted, weights k/N, counts k)."""
        rows, counts = np.unique(s.ranks_matrix, axis=0, return_counts=True)
        return cls._trusted(s.n, rows, counts / s.size, counts=counts)

    @cached_property
    def support_comparisons(self) -> np.ndarray:
        x = comparison_matrix(self.ranks)
        x.setflags(write=False)
        return x

    def marginals(self) -> PairwiseMatrix:
        return PairwiseMatrix.from_comparisons(self.n, self.support_comparisons, self.weights)

    def prob_of(self, sigma: Permutation) -> float:
        if sigma.n != self.n:
            return 0.0
        hit = np.flatnonzero((self.ranks == sigma.ranks).all(axis=1))
        return float(self.weights[hit[0]]) if hit.size else 0.0


def ranking_risk(d: DiscreteRankingDistribution, sigma: Permutation) -> float:
    """Expected Kendall tau distance from a draw of d to sigma."""
    if d.n != sigma.n:
        raise DimensionMismatchError("ranking_risk: size mismatch")
    wrong = d.support_comparisons != np.array(sigma.comparison_bits(), dtype=bool)
    return _sequential_sum(d.weights * wrong.sum(axis=1))


def risk_from_marginals(m: PairwiseMatrix, sigma: Permutation) -> float:
    """Ranking risk computed from pairwise marginals alone.

    Per pair, the disagreement probability is p[later, earlier]; summing over
    pairs equals the expected Kendall distance because the distance itself
    decomposes over pairs.
    """
    if m.n != sigma.n:
        raise DimensionMismatchError("risk_from_marginals: size mismatch")
    i, j = pair_indices(m.n)
    r = np.asarray(sigma.ranks)
    later = r[i] > r[j]
    loss = m.p[np.where(later, i, j), np.where(later, j, i)]
    return _sequential_sum(loss)
