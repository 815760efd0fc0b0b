"""Key and measure samplers with controllable skew.

The paper studies how PM behaves as the data distribution departs from
uniform (Figures 7 and 11): it constructs SSB instances whose values follow
Uniform, Exponential, Gamma and Gaussian-mixture distributions.  This module
provides the corresponding samplers in two flavours:

* :class:`KeySampler` — draws *ordinal codes* in ``[0, size)``; used for the
  fact table's foreign keys and dictionary-encoded dimension attributes, which
  is what drives the distribution dependence of COUNT queries.
* :class:`MeasureSampler` — draws continuous measure values; drives the
  distribution dependence of SUM queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.exceptions import DataGenerationError
from repro.rng import RngLike, ensure_rng

__all__ = [
    "KeySampler",
    "MeasureSampler",
    "key_sampler",
    "measure_sampler",
    "GaussianMixtureSpec",
    "KEY_DISTRIBUTIONS",
    "MEASURE_DISTRIBUTIONS",
    "scipy_stats",
]


def scipy_stats():
    """The ``scipy.stats`` module, imported on the first call.

    Only the gamma and Gaussian-mixture key shapes and the exponential and
    gamma measure supports use it.  Importing it costs about half a second
    and ~60 MB of resident memory, so it is kept off every import path: a
    process that never draws skewed data (the query server, the cache
    server, the fleet router) never loads it.  A forking caller that will
    draw skewed data in its workers calls this first, so they inherit the
    module instead of each importing it mid-run.
    """
    from scipy import stats

    return stats


@dataclass(frozen=True)
class GaussianMixtureSpec:
    """A two-component Gaussian mixture used by the Figure 11 experiments.

    ``means`` / ``stds`` are expressed as fractions of the domain size (or of
    the measure range), so the same spec is reusable across differently sized
    domains; ``weights`` are the mixture weights.
    """

    means: tuple[float, float]
    stds: tuple[float, float]
    weights: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self) -> None:
        if len(self.means) != 2 or len(self.stds) != 2 or len(self.weights) != 2:
            raise DataGenerationError("Gaussian mixtures here use exactly two components")
        if any(s <= 0 for s in self.stds):
            raise DataGenerationError("mixture standard deviations must be positive")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise DataGenerationError("mixture weights must sum to one")


@dataclass(frozen=True)
class _SamplingTables:
    """Per-domain-size tables a :class:`KeySampler` caches and reuses:
    the normalised probability vector, its CDF, and whether the shape is
    flat (which routes draws through the uniform integer sampler).  The
    Walker alias tables live in a separate lazy cache — see
    :meth:`KeySampler._alias`."""

    probabilities: np.ndarray
    cdf: np.ndarray
    uniform: bool


def _build_alias_tables(probabilities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker's alias tables for ``probabilities`` (accept thresholds, aliases)."""
    size = probabilities.size
    scaled = (probabilities * size).tolist()
    accept = np.ones(size, dtype=np.float64)
    alias = np.arange(size, dtype=np.int64)
    small = [i for i, value in enumerate(scaled) if value < 1.0]
    large = [i for i, value in enumerate(scaled) if value >= 1.0]
    while small and large:
        lo = small.pop()
        hi = large.pop()
        accept[lo] = scaled[lo]
        alias[lo] = hi
        scaled[hi] -= 1.0 - scaled[lo]
        (small if scaled[hi] < 1.0 else large).append(hi)
    # Leftovers are 1.0 up to rounding; their accept threshold stays 1.
    return accept, alias


class KeySampler:
    """Samples ordinal codes in ``[0, size)`` according to a fixed shape.

    The probability vector, its CDF and the alias tables are built once per
    domain size and cached on the sampler — rebuilding and renormalising them
    on every ``sample`` call made the skew experiments' data generation cost
    grow with the number of draws instead of the number of distinct domains.
    """

    def __init__(self, name: str, probability_fn: Callable[[int], np.ndarray]):
        self.name = name
        self._probability_fn = probability_fn
        self._tables: dict[int, _SamplingTables] = {}
        self._alias_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def tables(self, size: int) -> _SamplingTables:
        """The cached sampling tables for ``size`` codes (built on first use)."""
        if size <= 0:
            raise DataGenerationError("domain size must be positive")
        tables = self._tables.get(size)
        if tables is None:
            probabilities = np.asarray(self._probability_fn(size), dtype=np.float64)
            probabilities = np.clip(probabilities, 1e-12, None)
            probabilities = probabilities / probabilities.sum()
            cdf = np.cumsum(probabilities)
            cdf[-1] = 1.0  # guard float rounding so every u < 1 lands in-domain
            uniform = bool(
                probabilities.size
                and probabilities.max() - probabilities.min() < 1e-15
            )
            for array in (probabilities, cdf):
                array.setflags(write=False)
            tables = _SamplingTables(probabilities=probabilities, cdf=cdf, uniform=uniform)
            self._tables[size] = tables
        return tables

    def _alias(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """The cached Walker alias tables (accept thresholds, aliases) for
        ``size`` codes.  They answer a draw with two uniform variates and two
        table gathers — O(1) per code instead of the O(log size)
        cache-unfriendly binary search of ``searchsorted`` (or of
        ``Generator.choice``, which also rebuilds its CDF on every call) —
        and cost an O(size) Python construction, so they are built lazily on
        the first non-uniform draw."""
        entry = self._alias_tables.get(size)
        if entry is None:
            accept, alias = _build_alias_tables(self.tables(size).probabilities)
            accept.setflags(write=False)
            alias.setflags(write=False)
            entry = (accept, alias)
            self._alias_tables[size] = entry
        return entry

    def probabilities(self, size: int) -> np.ndarray:
        """The probability vector over ``size`` codes (cached, read-only)."""
        return self.tables(size).probabilities

    def cdf(self, size: int) -> np.ndarray:
        """The cumulative distribution over ``size`` codes (cached, read-only)."""
        return self.tables(size).cdf

    def sample(self, size: int, count: int, rng: RngLike = None) -> np.ndarray:
        """Draw ``count`` codes from ``[0, size)``.

        A flat vector is the common case (every figure except the skew
        studies) and routes through the uniform integer sampler; non-uniform
        shapes draw from the cached alias tables.
        """
        generator = ensure_rng(rng)
        tables = self.tables(size)
        if tables.uniform:
            return generator.integers(0, size, size=count, dtype=np.int64)
        accept, alias = self._alias(size)
        codes = generator.integers(0, size, size=count, dtype=np.int64)
        acceptance = generator.random(count)
        return np.where(acceptance < accept[codes], codes, alias[codes])

    def sample_via_cdf(self, size: int, count: int, rng: RngLike = None) -> np.ndarray:
        """Inverse-CDF draw: ``searchsorted(cdf, random(count))``.

        Same distribution as :meth:`sample` (different variates for the same
        seed); kept as the reference implementation the alias tables are
        validated against, and for callers that need monotone inverse-CDF
        sampling (e.g. common random numbers across distributions).
        """
        generator = ensure_rng(rng)
        cdf = self.tables(size).cdf
        return np.searchsorted(cdf, generator.random(count), side="right").astype(np.int64)


class MeasureSampler:
    """Samples continuous measure values in a configurable positive range.

    ``support`` is the fixed reference interval of the *raw* draws (analytic,
    e.g. a 99.9% quantile range).  Rescaling by it makes the mapping to
    ``[low, high]`` a per-value function: the distribution of the output does
    not depend on the batch size, and two half-size draws equal one full
    draw.  (Rescaling by each batch's observed extremes — the previous
    behaviour — made the measure distribution a function of ``count``.)
    A sampler built without a declared support falls back to the legacy
    batch rescale.
    """

    def __init__(
        self,
        name: str,
        draw_fn: Callable[[np.random.Generator, int], np.ndarray],
        support: Optional[tuple[float, float]] = None,
    ):
        if support is not None:
            lo, hi = (float(support[0]), float(support[1]))
            if not (hi > lo):
                raise DataGenerationError("measure support must satisfy high > low")
            support = (lo, hi)
        self.name = name
        self.support = support
        self._draw_fn = draw_fn

    def sample(self, count: int, rng: RngLike = None, low: float = 1.0, high: float = 100.0) -> np.ndarray:
        """Draw ``count`` values, rescaled into ``[low, high]``."""
        if high <= low:
            raise DataGenerationError("measure range must satisfy high > low")
        generator = ensure_rng(rng)
        raw = np.asarray(self._draw_fn(generator, count), dtype=np.float64)
        if raw.size == 0:
            return raw
        if self.support is not None:
            lo, hi = self.support
            normalised = np.clip((raw - lo) / (hi - lo), 0.0, 1.0)
        else:
            spread = raw.max() - raw.min()
            if spread == 0:
                # Degenerate batch (constant draw): map to the midpoint
                # rather than dividing by zero.
                normalised = np.full_like(raw, 0.5)
            else:
                normalised = (raw - raw.min()) / spread
        return low + normalised * (high - low)


# ----------------------------------------------------------------------
# key-distribution shapes (probability over ordinal positions)
# ----------------------------------------------------------------------
def _uniform_probabilities(size: int) -> np.ndarray:
    return np.full(size, 1.0 / size)


def _exponential_probabilities(size: int, scale_fraction: float = 0.25) -> np.ndarray:
    positions = np.arange(size)
    return np.exp(-positions / max(size * scale_fraction, 1.0))


def _gamma_probabilities(size: int, shape: float = 2.0, scale_fraction: float = 0.15) -> np.ndarray:
    positions = np.arange(size) + 0.5
    return scipy_stats().gamma.pdf(positions, a=shape, scale=max(size * scale_fraction, 1.0))


def _zipf_probabilities(size: int, exponent: float = 1.2) -> np.ndarray:
    positions = np.arange(1, size + 1, dtype=np.float64)
    return positions**-exponent


def _gaussian_mixture_probabilities(size: int, spec: GaussianMixtureSpec) -> np.ndarray:
    positions = np.arange(size, dtype=np.float64)
    density = np.zeros(size, dtype=np.float64)
    stats = scipy_stats()
    for weight, mean_fraction, std_fraction in zip(spec.weights, spec.means, spec.stds):
        mean = mean_fraction * size
        std = max(std_fraction * size, 0.5)
        density += weight * stats.norm.pdf(positions, loc=mean, scale=std)
    return density


KEY_DISTRIBUTIONS: dict[str, Callable[..., KeySampler]] = {}


def _register_key(name: str, builder: Callable[..., KeySampler]) -> None:
    KEY_DISTRIBUTIONS[name] = builder


_register_key("uniform", lambda: KeySampler("uniform", _uniform_probabilities))
_register_key(
    "exponential",
    lambda scale_fraction=0.25: KeySampler(
        "exponential", lambda size: _exponential_probabilities(size, scale_fraction)
    ),
)
_register_key(
    "gamma",
    lambda shape=2.0, scale_fraction=0.15: KeySampler(
        "gamma", lambda size: _gamma_probabilities(size, shape, scale_fraction)
    ),
)
_register_key(
    "zipf",
    lambda exponent=1.2: KeySampler("zipf", lambda size: _zipf_probabilities(size, exponent)),
)
_register_key(
    "gaussian_mixture",
    lambda spec=GaussianMixtureSpec(means=(0.3, 0.7), stds=(0.1, 0.1)): KeySampler(
        "gaussian_mixture", lambda size: _gaussian_mixture_probabilities(size, spec)
    ),
)


#: Memoized sampler instances, so repeated database builds (trial after
#: trial, figure after figure) share one sampler — and therefore one set of
#: cached per-size sampling tables.  Samplers are stateless (the generator is
#: passed per draw), so sharing is safe.
_KEY_SAMPLER_CACHE: dict = {}


def key_sampler(name: str, **params) -> KeySampler:
    """Build (or reuse) a :class:`KeySampler` by name (``uniform`` /
    ``exponential`` / ``gamma`` / ``zipf`` / ``gaussian_mixture``)."""
    try:
        builder = KEY_DISTRIBUTIONS[name]
    except KeyError:
        raise DataGenerationError(
            f"unknown key distribution {name!r}; available: {sorted(KEY_DISTRIBUTIONS)}"
        ) from None
    try:
        cache_key = (name, tuple(sorted(params.items())))
        hash(cache_key)
    except TypeError:
        return builder(**params)
    sampler = _KEY_SAMPLER_CACHE.get(cache_key)
    if sampler is None:
        sampler = _KEY_SAMPLER_CACHE.setdefault(cache_key, builder(**params))
    return sampler


# ----------------------------------------------------------------------
# measure-distribution shapes (continuous draws, rescaled by the caller)
# ----------------------------------------------------------------------
MEASURE_DISTRIBUTIONS: dict[str, Callable[..., MeasureSampler]] = {}


def _register_measure(name: str, builder: Callable[..., MeasureSampler]) -> None:
    MEASURE_DISTRIBUTIONS[name] = builder


# Each raw distribution declares a fixed reference interval: exact bounds
# where the support is bounded, a 99.9% analytic quantile (or ±4σ for the
# mixtures) where it is not.  Values beyond the interval clip to its edges.
_register_measure(
    "uniform",
    lambda: MeasureSampler(
        "uniform", lambda rng, n: rng.uniform(0.0, 1.0, size=n), support=(0.0, 1.0)
    ),
)
_register_measure(
    "exponential",
    lambda scale=1.0: MeasureSampler(
        "exponential",
        lambda rng, n: rng.exponential(scale, size=n),
        support=(0.0, float(scipy_stats().expon.ppf(0.999, scale=scale))),
    ),
)
_register_measure(
    "gamma",
    lambda shape=2.0, scale=1.0: MeasureSampler(
        "gamma",
        lambda rng, n: rng.gamma(shape, scale, size=n),
        support=(0.0, float(scipy_stats().gamma.ppf(0.999, a=shape, scale=scale))),
    ),
)
_register_measure(
    "gaussian_mixture",
    lambda spec=GaussianMixtureSpec(means=(0.3, 0.7), stds=(0.1, 0.1)): MeasureSampler(
        "gaussian_mixture",
        lambda rng, n, _spec=spec: _draw_gaussian_mixture(rng, n, _spec),
        support=_mixture_support(spec),
    ),
)


def _mixture_support(spec: GaussianMixtureSpec) -> tuple[float, float]:
    """±4σ envelope of the mixture's components (≥ 99.99% of each)."""
    lows = [mean - 4.0 * std for mean, std in zip(spec.means, spec.stds)]
    highs = [mean + 4.0 * std for mean, std in zip(spec.means, spec.stds)]
    return (min(lows), max(highs))


def _draw_gaussian_mixture(
    rng: np.random.Generator, count: int, spec: GaussianMixtureSpec
) -> np.ndarray:
    # A two-outcome categorical draw: one uniform vector against the first
    # weight beats ``Generator.choice(2, p=...)`` by an order of magnitude.
    first = rng.random(count) < spec.weights[0]
    means = np.where(first, spec.means[0], spec.means[1])
    stds = np.where(first, spec.stds[0], spec.stds[1])
    return rng.normal(means, stds)


def measure_sampler(name: str, **params) -> MeasureSampler:
    """Build a :class:`MeasureSampler` by name."""
    try:
        builder = MEASURE_DISTRIBUTIONS[name]
    except KeyError:
        raise DataGenerationError(
            f"unknown measure distribution {name!r}; available: {sorted(MEASURE_DISTRIBUTIONS)}"
        ) from None
    return builder(**params)
