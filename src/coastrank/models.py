"""Generative ranking models: Mallows, Plackett-Luce, and finite mixtures.

These are data generators only (no fitting).  Samplers take an explicit
seeded ``numpy.random.Generator``; nothing touches global RNG state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import RankingError, RejectedInputError
from .perms import (
    DiscreteRankingDistribution,
    Permutation,
    RankingSample,
    kendall_tau,
    num_pairs,
    symmetric_group,
)

PHI_PRESETS = (0.1, 0.3, 0.5, 0.7)


@dataclass(frozen=True)
class MallowsParams:
    """Location-scale ranking model: mass(sigma) ∝ exp(-phi * d(sigma, center))."""

    center: Permutation
    phi: float

    def __post_init__(self):
        if not isinstance(self.center, Permutation):
            raise RejectedInputError("center must be a Permutation")
        if not (isinstance(self.phi, (int, float)) and math.isfinite(self.phi) and self.phi > 0):
            raise RejectedInputError(f"phi must be a positive finite real, got {self.phi!r}")
        object.__setattr__(self, "phi", float(self.phi))

    @property
    def n(self) -> int:
        return self.center.n


@dataclass(frozen=True)
class PlackettLuceParams:
    """Sequential-choice model; ``worths[i]`` is item i's positive worth."""

    worths: tuple[float, ...]

    def __post_init__(self):
        w = tuple(float(x) for x in self.worths)
        object.__setattr__(self, "worths", w)
        if len(w) < 1:
            raise RejectedInputError("worths must be nonempty")
        if not all(math.isfinite(x) and x > 0 for x in w):
            raise RejectedInputError(f"worths must be positive finite reals, got {w!r}")
        if not math.isfinite(sum(w)):
            raise RejectedInputError(f"worths must have a finite sum, got {w!r}")

    @property
    def n(self) -> int:
        return len(self.worths)


ComponentParams = Union[MallowsParams, PlackettLuceParams]


def exponential_worths(n: int, rho: float = 0.5) -> tuple[float, ...]:
    """Geometrically decreasing worths rho**0, rho**1, ... (mode = identity)."""
    if not (0 < rho < 1):
        raise RejectedInputError(f"rho must lie in (0, 1), got {rho!r}")
    return tuple(rho**i for i in range(n))


def mallows_normalizer(n: int, phi: float) -> float:
    """Closed-form sum of exp(-phi*d) over all rankings of n items.

    Product over j = 1..n of (1 - e^{-j phi}) / (1 - e^{-phi}); the j-th
    factor is the inversion-count generating sum for one insertion slot.
    """
    if phi <= 0:
        raise RejectedInputError("phi must be positive")
    denom = -math.expm1(-phi)
    z = 1.0
    for j in range(1, n + 1):
        z *= -math.expm1(-j * phi) / denom
    return z


def mallows_pmf(params: MallowsParams, sigma: Permutation) -> float:
    """Exact probability of one ranking under the Mallows model."""
    d = kendall_tau(sigma, params.center)
    return math.exp(-params.phi * d) / mallows_normalizer(params.n, params.phi)


def mallows_distribution(params: MallowsParams) -> DiscreteRankingDistribution:
    """The full Mallows distribution over the cached S_n table (small n only)."""
    n = params.n
    ranks, cmp = symmetric_group(n)
    # Kendall distances to the center: the comparison columns that disagree with it
    tau = (cmp != np.array(params.center.comparison_bits(), dtype=bool)).sum(axis=1)
    z = mallows_normalizer(n, params.phi)
    mass = np.array([math.exp(-params.phi * d) / z for d in range(num_pairs(n) + 1)])
    return DiscreteRankingDistribution._trusted(n, ranks, mass[tau], cmp)


def _displacement_counts(n: int, phi: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Independent slot displacements v[:, r] in 0..n-1-r with P(v) ∝ e^{-phi v}."""
    q = math.exp(-phi)
    v = np.zeros((size, n), dtype=np.int64)
    for r in range(n - 1):
        m = n - 1 - r  # max displacement at this slot
        probs = q ** np.arange(m + 1)
        probs /= probs.sum()
        v[:, r] = rng.choice(m + 1, size=size, p=probs)
    return v


def _ranks_from_displacements(v: np.ndarray) -> np.ndarray:
    """Decode displacement rows into rank vectors around the identity.

    At step r the v[:, r]-th smallest still-unplaced item receives rank r;
    each skipped smaller item will land later, contributing exactly one
    inversion, so total inversions equal v.sum(axis=1).
    """
    size, n = v.shape
    remaining = np.tile(np.arange(n), (size, 1))
    ranks = np.empty((size, n), dtype=np.int64)
    rows = np.arange(size)
    for r in range(n):
        width = n - r
        idx = np.minimum(v[:, r], width - 1)
        picked = remaining[rows, idx]
        ranks[rows, picked] = r
        if width > 1:
            keep = np.arange(width)[None, :] != idx[:, None]
            remaining = remaining[keep].reshape(size, width - 1)
    return ranks


def _mallows_ranks(params: MallowsParams, size: int, rng: np.random.Generator) -> np.ndarray:
    v = _displacement_counts(params.n, params.phi, size, rng)
    rho = _ranks_from_displacements(v)
    # right-compose with the center: d(rho∘center, center) = d(rho, id)
    return rho[:, np.asarray(params.center.ranks)]


def _pl_ranks(params: PlackettLuceParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """Sequential sampling without replacement, proportional to remaining worths."""
    n = params.n
    live = np.tile(np.asarray(params.worths, dtype=np.float64), (size, 1))
    ranks = np.empty((size, n), dtype=np.int64)
    rows = np.arange(size)
    for t in range(n):
        cum = np.cumsum(live, axis=1)
        thresh = rng.random(size) * cum[:, -1]
        picked = (cum > thresh[:, None]).argmax(axis=1)
        ranks[rows, picked] = t
        live[rows, picked] = 0.0
    return ranks


def _check_draw_args(size: int, rng) -> None:
    if not (isinstance(size, (int, np.integer)) and size >= 1):
        raise RejectedInputError(f"sample size must be >= 1, got {size!r}")
    if not isinstance(rng, np.random.Generator):
        raise RejectedInputError("rng must be a numpy Generator (no global RNG)")


def sample_mallows(params: MallowsParams, size: int, rng: np.random.Generator) -> RankingSample:
    """Draw ``size`` i.i.d. rankings; exact via the repeated-insertion code."""
    _check_draw_args(size, rng)
    return RankingSample.from_ranks(_mallows_ranks(params, int(size), rng))


def sample_plackett_luce(
    params: PlackettLuceParams, size: int, rng: np.random.Generator
) -> RankingSample:
    """Draw ``size`` i.i.d. rankings by repeated worth-proportional choice."""
    _check_draw_args(size, rng)
    return RankingSample.from_ranks(_pl_ranks(params, int(size), rng))


@dataclass(frozen=True)
class MixtureSpec:
    """A finite mixture of ranking models plus the seed that reproduces it.

    ``components`` is a sequence of (params, mixing weight) pairs over a
    common item count; weights are positive and sum to one.  Sampling is a
    pure function of (spec, size): the component labels come from a master
    generator seeded with ``seed`` and each component consumes its own
    spawned child stream.
    """

    n: int
    seed: int
    components: tuple[tuple[ComponentParams, float], ...]

    def __post_init__(self):
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise RejectedInputError(f"seed must be a non-negative integer, got {self.seed!r}")
        comps = tuple((p, float(m)) for p, m in self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) < 1:
            raise RejectedInputError("mixture needs at least one component")
        for p, m in comps:
            if not isinstance(p, (MallowsParams, PlackettLuceParams)):
                raise RejectedInputError(f"unsupported component params: {p!r}")
            if p.n != self.n:
                raise RejectedInputError(
                    f"component over {p.n} items in a mixture over {self.n}"
                )
            if not (math.isfinite(m) and m > 0):
                raise RejectedInputError(f"mixing weights must be positive, got {m!r}")
        total = sum(m for _, m in comps)
        if abs(total - 1.0) > 1e-10:
            raise RejectedInputError(f"mixing weights sum to {total!r}, expected 1")

    @property
    def k(self) -> int:
        return len(self.components)

    def to_json_obj(self) -> dict:
        comps = []
        for p, m in self.components:
            if isinstance(p, MallowsParams):
                comps.append(
                    {
                        "type": "mallows",
                        "center": list(p.center.to_one_based()),
                        "phi": p.phi,
                        "mix": m,
                    }
                )
            else:
                comps.append({"type": "plackett_luce", "weights": list(p.worths), "mix": m})
        return {"n": self.n, "seed": self.seed, "components": comps}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MixtureSpec":
        try:
            n = int(obj["n"])
            seed = int(obj["seed"])
            raw = obj["components"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise RejectedInputError(f"malformed mixture document: {exc}") from exc
        if not isinstance(raw, list):
            raise RejectedInputError(f"mixture components must be a list, got {raw!r}")
        comps = []
        for i, c in enumerate(raw):
            try:
                kind = c.get("type")
                if kind == "mallows":
                    center = Permutation.from_one_based(c["center"])
                    comps.append((MallowsParams(center, float(c["phi"])), float(c["mix"])))
                elif kind == "plackett_luce":
                    comps.append(
                        (PlackettLuceParams(tuple(c["weights"])), float(c["mix"]))
                    )
                else:
                    raise RejectedInputError(f"unknown component type: {kind!r}")
            except RankingError:
                raise
            except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
                raise RejectedInputError(
                    f"malformed mixture component {i}: {type(exc).__name__}: {exc}"
                ) from exc
        return cls(n, seed, tuple(comps))

    def with_seed(self, seed: int) -> "MixtureSpec":
        return MixtureSpec(self.n, int(seed), self.components)


def sample_mixture(spec: MixtureSpec, size: int) -> RankingSample:
    """Draw a labeled sample: label k means the row came from component k."""
    if not (isinstance(size, (int, np.integer)) and size >= 1):
        raise RejectedInputError(f"sample size must be >= 1, got {size!r}")
    size = int(size)
    master = np.random.default_rng(spec.seed)
    mix = np.array([m for _, m in spec.components])
    labels = master.choice(spec.k, size=size, p=mix / mix.sum())
    children = master.spawn(spec.k)
    ranks = np.empty((size, spec.n), dtype=np.int64)
    for k, (params, _) in enumerate(spec.components):
        idx = np.nonzero(labels == k)[0]
        if idx.size == 0:
            continue
        if isinstance(params, MallowsParams):
            ranks[idx] = _mallows_ranks(params, idx.size, children[k])
        else:
            ranks[idx] = _pl_ranks(params, idx.size, children[k])
    return RankingSample.from_ranks(ranks, labels=tuple(int(x) for x in labels))


def _separated_centers(
    n: int, k: int, rng: np.random.Generator, min_separation: int, tries: int
) -> list[Permutation]:
    centers: list[Permutation] = []
    for _ in range(tries):
        if len(centers) == k:
            break
        cand = Permutation(tuple(int(x) for x in rng.permutation(n)))
        if all(kendall_tau(cand, c) >= min_separation for c in centers):
            centers.append(cand)
    if len(centers) < k:
        raise RejectedInputError(
            f"could not place {k} centers at pairwise distance >= {min_separation}"
        )
    return centers


def random_mallows_mixture_spec(
    n: int,
    k: int,
    phi: float,
    seed: int,
    min_separation: int | None = None,
    tries: int = 10000,
) -> MixtureSpec:
    """Equal-weight Mallows mixture with rejection-separated random centers.

    Separation defaults to n(n-1)/8 — a quarter of the diameter — so that
    distinct modes stay resolvable in mode-recovery experiments.
    """
    if min_separation is None:
        min_separation = (n * (n - 1)) // 8
    rng = np.random.default_rng([seed, 1])
    centers = _separated_centers(n, k, rng, min_separation, tries)
    comps = tuple((MallowsParams(c, phi), 1.0 / k) for c in centers)
    return MixtureSpec(n, seed, comps)


def random_plackett_luce_mixture_spec(
    n: int,
    k: int,
    rho: float,
    seed: int,
    min_separation: int | None = None,
    tries: int = 10000,
) -> MixtureSpec:
    """Equal-weight mixture of worth-permuted Plackett-Luce components.

    Component k's worths are rho**center_k(i), so its modal ranking is the
    center; centers are separation-rejected exactly as in the Mallows case.
    """
    if min_separation is None:
        min_separation = (n * (n - 1)) // 8
    base = exponential_worths(n, rho)
    rng = np.random.default_rng([seed, 1])
    centers = _separated_centers(n, k, rng, min_separation, tries)
    comps = tuple(
        (PlackettLuceParams(tuple(base[c.ranks[i]] for i in range(n))), 1.0 / k)
        for c in centers
    )
    return MixtureSpec(n, seed, comps)
