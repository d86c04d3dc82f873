"""Core permutation types and Kendall-tau machinery.

Rankings are full (no ties). A permutation maps items to ranks; internally
items and ranks are both 0-based, and every external surface (files, JSON,
CLI) is 1-based. Conversions happen only at those boundaries.

Pairwise structure is central: a ranking is equivalently its comparison
vector over the ``C(n,2)`` item pairs in lexicographic order, and the
Kendall tau distance is the Hamming distance between comparison vectors.
Bulk operations exploit that representation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    EnumerationLimitError,
    RejectedInputError,
)

#: Default cap for exact enumerations of the symmetric group.
ENUMERATION_LIMIT = 9


def num_pairs(n: int) -> int:
    return n * (n - 1) // 2


def pair_list(n: int) -> list[tuple[int, int]]:
    """All item pairs (i, j), i < j, in lexicographic order."""
    return list(itertools.combinations(range(n), 2))


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
    def reverse(cls, n: int) -> "Permutation":
        return cls(tuple(range(n - 1, -1, -1)))

    @classmethod
    def from_one_based(cls, seq) -> "Permutation":
        return cls(tuple(int(x) - 1 for x in seq))

    def to_one_based(self) -> tuple[int, ...]:
        return tuple(r + 1 for r in self.ranks)

    def compose(self, other: "Permutation") -> "Permutation":
        """Function composition: (self . other)(i) = self(other(i))."""
        if self.n != other.n:
            raise DimensionMismatchError("compose: size mismatch")
        return Permutation(tuple(self.ranks[r] for r in other.ranks))

    def comparison_bits(self) -> tuple[int, ...]:
        """1 where i is ranked before j, over lexicographic pairs (i, j)."""
        r = self.ranks
        return tuple(1 if r[i] < r[j] else 0 for i, j in itertools.combinations(range(self.n), 2))


def enumerate_permutations(n: int, limit: int = ENUMERATION_LIMIT):
    """Yield all n! permutations once, lexicographically by rank vector."""
    if n < 1:
        raise RejectedInputError(f"n must be >= 1, got {n}")
    if n > limit:
        raise EnumerationLimitError(f"n={n} exceeds enumeration limit {limit}")
    for ranks in itertools.permutations(range(n)):
        yield Permutation._trusted(ranks)


def _count_inversions(seq: list[int]) -> int:
    """Inversion count by merge sort; O(len log len)."""
    n = len(seq)
    if n < 2:
        return 0
    work = list(seq)
    buf = [0] * n
    count = 0
    width = 1
    while width < n:
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if work[i] <= work[j]:
                    buf[k] = work[i]
                    i += 1
                else:
                    # work[j] jumps ahead of every element left in [i, mid)
                    buf[k] = work[j]
                    j += 1
                    count += mid - i
                k += 1
            buf[k:hi] = work[i:mid] if i < mid else work[j:hi]
            work[lo:hi] = buf[lo:hi]
        width *= 2
    return count


def kendall_tau(a: Permutation, b: Permutation) -> int:
    """Kendall tau distance: the number of discordantly ordered item pairs."""
    if a.n != b.n:
        raise DimensionMismatchError(f"kendall_tau: {a.n} vs {b.n} items")
    # Read b's ranks in a's preference order; discordant pairs become inversions.
    seq = [b.ranks[item] for item in a.ordering()]
    return _count_inversions(seq)


def comparison_matrix(ranks: np.ndarray) -> np.ndarray:
    """Boolean (N, C(n,2)) matrix of 'i before j' bits over lexicographic pairs.

    The result is Fortran-ordered: its transpose is filled one item at a
    time, block i holding item i against items i+1..n-1, so no (N, C(n,2))
    gather of ranks is made.
    """
    n = ranks.shape[1]
    by_item = np.ascontiguousarray(ranks.T)
    out_t = np.empty((n * (n - 1) // 2, ranks.shape[0]), dtype=bool)
    col = 0
    for i in range(n - 1):
        np.less(by_item[i], by_item[i + 1 :], out=out_t[col : col + n - 1 - i])
        col += n - 1 - i
    return out_t.T


def hamming_cross(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Pairwise Hamming distances between rows of two boolean matrices."""
    a = xa.astype(np.float64)
    b = xb.astype(np.float64)
    # disagreements = a(1-b)' + (1-a)b'
    return np.rint(a @ (1.0 - b.T) + (1.0 - a) @ b.T).astype(np.int64)


def non_permutation_rows(a: np.ndarray) -> np.ndarray:
    """Indices of the rows of an (N, n) integer array that are not permutations of 0..n-1."""
    n = a.shape[1]
    in_range = ((a >= 0) & (a < n)).all(axis=1)
    seen = np.zeros(a.shape, dtype=bool)
    np.put_along_axis(seen, np.where(in_range[:, None], a, 0), True, axis=1)
    return np.flatnonzero(~(in_range & seen.all(axis=1)))


def inverse_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise inverse of an (N, n) array of permutations of 0..n-1."""
    out = np.empty_like(a)
    np.put_along_axis(out, a, np.arange(a.shape[1], dtype=a.dtype), axis=1)
    return out


class RankingSample:
    """An immutable batch of N full rankings over the same n items.

    The (N, n) matrix of 0-based ranks is the primary state, and the
    pairwise comparison matrix is cached from it. ``Permutation`` objects are
    built only when ``rankings`` or indexing asks for them.
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
        self._rankings = rankings

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
        bad = non_permutation_rows(a)
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
        self._rankings = None

    @property
    def n(self) -> int:
        return self._ranks.shape[1]

    @property
    def size(self) -> int:
        return self._ranks.shape[0]

    @property
    def rankings(self) -> tuple[Permutation, ...]:
        if self._rankings is None:
            self._rankings = tuple(Permutation._trusted(r) for r in self._ranks.tolist())
        return self._rankings

    @property
    def labels(self):
        return self._labels

    @property
    def ranks_matrix(self) -> np.ndarray:
        return self._ranks

    def __len__(self) -> int:
        return self._ranks.shape[0]

    def __getitem__(self, i):
        if self._rankings is not None or isinstance(i, slice):
            return self.rankings[i]
        return Permutation._trusted(self._ranks[i].tolist())

    @cached_property
    def comparisons(self) -> np.ndarray:
        x = comparison_matrix(self._ranks)
        x.setflags(write=False)
        return x

    def subset(self, indices) -> "RankingSample":
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size == 0:
            raise RejectedInputError("empty sample")
        labels = None if self._labels is None else tuple(self._labels[i] for i in idx.tolist())
        sub = RankingSample.__new__(RankingSample)
        sub._set_state(self._ranks[idx], labels)
        if "comparisons" in self.__dict__:
            x = self.comparisons[idx]
            x.setflags(write=False)
            sub.comparisons = x
        return sub


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
        if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
            raise RejectedInputError("marginals outside [0, 1]")
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
        # triu_indices lists the pairs in lexicographic order, as pair_list does
        iu = np.triu_indices(n, 1)
        p = np.full((n, n), 0.5)
        p[iu] = upper
        p[iu[::-1]] = 1.0 - upper
        return cls(n, p)


def pairwise_marginals(s: RankingSample) -> PairwiseMatrix:
    """Empirical pairwise marginals of a sample."""
    return PairwiseMatrix.from_comparisons(s.n, s.comparisons)


@dataclass(frozen=True, eq=False)
class DiscreteRankingDistribution:
    """A finitely supported distribution over rankings (distinct support)."""

    n: int
    support: tuple[Permutation, ...]
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        if len(self.support) == 0:
            raise RejectedInputError("empty support")
        if len(self.support) != w.shape[0]:
            raise DimensionMismatchError("support/weights length mismatch")
        for p in self.support:
            if p.n != self.n:
                raise DimensionMismatchError("support permutation of wrong size")
        if len({p.ranks for p in self.support}) != len(self.support):
            raise RejectedInputError("support points must be distinct")
        if np.any(w < -1e-15):
            raise RejectedInputError("negative weight")
        if abs(float(w.sum()) - 1.0) > 1e-10:
            raise RejectedInputError(f"weights sum to {w.sum()!r}, not 1")

    @property
    def size(self) -> int:
        return len(self.support)

    @classmethod
    def from_pairs(cls, pairs) -> "DiscreteRankingDistribution":
        """Build from (permutation, weight) pairs, merging duplicates."""
        acc: dict[tuple[int, ...], float] = {}
        n = None
        for perm, w in pairs:
            n = perm.n if n is None else n
            acc[perm.ranks] = acc.get(perm.ranks, 0.0) + float(w)
        items = sorted(acc.items())
        support = tuple(Permutation(r) for r, _ in items)
        weights = np.array([w for _, w in items], dtype=np.float64)
        return cls(n, support, weights)

    @classmethod
    def empirical(cls, s: RankingSample) -> "DiscreteRankingDistribution":
        """The empirical distribution of a sample (support sorted, weights k/N)."""
        rows, counts = np.unique(s.ranks_matrix, axis=0, return_counts=True)
        support = tuple(Permutation._trusted(r) for r in rows.tolist())
        return cls(s.n, support, counts / s.size)

    @cached_property
    def support_comparisons(self) -> np.ndarray:
        ranks = np.array([p.ranks for p in self.support], dtype=np.int32)
        x = comparison_matrix(ranks)
        x.setflags(write=False)
        return x

    def marginals(self) -> PairwiseMatrix:
        return PairwiseMatrix.from_comparisons(self.n, self.support_comparisons, self.weights)

    def condition(self, mask: np.ndarray) -> tuple[float, "DiscreteRankingDistribution | None"]:
        """Restrict to the support points selected by a boolean mask.

        Returns (mass, conditional); the conditional is None when mass is 0.
        """
        mask = np.asarray(mask, dtype=bool)
        mass = float(self.weights[mask].sum())
        if mass <= 0.0:
            return 0.0, None
        support = tuple(p for p, keep in zip(self.support, mask) if keep)
        weights = self.weights[mask] / mass
        return mass, DiscreteRankingDistribution(self.n, support, weights)

    def prob_of(self, sigma: Permutation) -> float:
        for p, w in zip(self.support, self.weights):
            if p.ranks == sigma.ranks:
                return float(w)
        return 0.0


def ranking_risk(d: DiscreteRankingDistribution, sigma: Permutation) -> float:
    """Expected Kendall tau distance from a draw of d to sigma."""
    if d.n != sigma.n:
        raise DimensionMismatchError("ranking_risk: size mismatch")
    return float(sum(w * kendall_tau(p, sigma) for p, w in zip(d.support, d.weights)))


def ranking_depth(d: DiscreteRankingDistribution, sigma: Permutation) -> float:
    """Centrality of sigma under d: n(n-1)/2 minus the ranking risk."""
    return num_pairs(d.n) - ranking_risk(d, sigma)


def risk_from_marginals(m: PairwiseMatrix, sigma: Permutation) -> float:
    """Ranking risk computed from pairwise marginals alone.

    Per pair, the disagreement probability is p[later, earlier]; summing over
    pairs equals the expected Kendall distance because the distance itself
    decomposes over pairs.
    """
    if m.n != sigma.n:
        raise DimensionMismatchError("risk_from_marginals: size mismatch")
    r = sigma.ranks
    total = 0.0
    for i, j in itertools.combinations(range(m.n), 2):
        total += m.p[i, j] if r[i] > r[j] else m.p[j, i]
    return float(total)
