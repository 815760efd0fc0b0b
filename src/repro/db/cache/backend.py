"""The cache-backend protocol and its shared vocabulary.

The execution engine (:mod:`repro.db.engine`) owns no cache storage of its
own: every memoized artefact — selection masks, fan-out statistics, measure
arrays, per-key contributions, data cubes, exact answers — is read and
written through a :class:`CacheBackend`.  Backends are interchangeable
(selected by configuration, see :func:`repro.db.cache.make_backend`):

* :class:`~repro.db.cache.local.LocalCacheBackend` — in-process storage,
  the default; one bounded :class:`~repro.db.cache.local.UtilityCache` or
  unbounded dict per (namespace, region).
* :class:`~repro.db.cache.remote.RemoteCacheBackend` — a two-tier backend
  whose second tier is a cache server process, so pool workers (and
  separate runs) share selection masks, data cubes and memoized exact
  answers with each other.

Keys are namespaced: every entry is addressed by ``(namespace, region,
key)``, where the namespace is the owning database's content fingerprint
(:func:`repro.db.cache.fingerprints.database_fingerprint`) and the region
names the kind of artefact (:data:`REGIONS`).  Content-derived namespaces
make keys process-independent — two workers that built the same logical
database compute the same namespace, which is what lets them share a cache —
and make invalidation after an in-place database mutation safe: the mutated
content hashes to a new namespace, so stale entries can never be served.

Every value stored through a backend must be a *pure function of its key*
(given the namespace's database content).  That is the backend-consistency
contract: because a cache hit returns exactly the value any process would
have recomputed, results are bit-identical across backends and across
``jobs=1`` / ``jobs=N`` runs.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, fields
from typing import Any, Hashable, Optional, Protocol, runtime_checkable

from repro.obs.metrics import unified_snapshot

__all__ = [
    "BOUNDED_REGIONS",
    "CacheBackend",
    "CacheStats",
    "DEFAULT_EVICTION_POLICY",
    "EVICTION_POLICIES",
    "REGIONS",
    "REGION_MAX_BYTES",
    "SHARED_REGIONS",
    "telemetry_from_stats",
    "value_nbytes",
]


#: Every cache region the execution engine uses, with a short description.
REGIONS: dict[str, str] = {
    "predicate_mask": "boolean fact-row mask of a single predicate",
    "selection_mask": "boolean fact-row mask of a conjunction",
    "fan_out": "unfiltered fan-out vector of a direct dimension",
    "max_fan_out": "maximum fan-out of a direct dimension",
    "measure": "measure expression over every fact row",
    "contribution": "per-dimension-key contribution vector",
    "sorted_contribution": "sorted contributions + exclusive prefix sums",
    "cube": "bincount-built data cube over workload attributes",
    "result": "memoized exact query answer",
    "release": "a served request's released payload (the query planner's memo)",
}

#: Regions kept behind a bounded LRU (noisy one-off keys must not grow the
#: cache without limit).  The complement — fan-out, measures, cubes — is
#: small, per-database statistics and stays unbounded, exactly as the
#: pre-refactor per-engine dicts did.
BOUNDED_REGIONS: frozenset[str] = frozenset(
    {
        "predicate_mask",
        "selection_mask",
        "contribution",
        "sorted_contribution",
        "result",
        "release",
    }
)

#: Fixed byte caps of single bounded regions, applied in every in-process
#: store on top of (never above) the backend's own ``max_bytes``.  A released
#: payload's size is the client's choice — GROUP BY cardinality × trials — so
#: the planner's memo is bounded by bytes even when no ``--cache-max-bytes``
#: is set, and a payload larger than the whole cap is not retained at all.
REGION_MAX_BYTES: dict[str, int] = {"release": 1 << 20}

#: Regions the remote backend writes through to its cross-process tier: the
#: artefacts that are expensive to recompute and cheap(er) to ship than to
#: rebuild.  Predicate masks and measure arrays are deliberately excluded —
#: they are either subsumed by selection masks or recomputed in microseconds.
#: Released payloads stay in each process's L1: the planner looks one up
#: before every star-join execution, and that lookup must never add a wire
#: round trip to a request.
SHARED_REGIONS: frozenset[str] = frozenset(
    {"selection_mask", "contribution", "sorted_contribution", "cube", "result"}
)

#: Eviction policies the bounded tiers understand.  ``"cost"`` is
#: cost-normalized utility eviction (GreedyDual-Size-Frequency: evict the
#: entry with the lowest ``recency-decay + frequency × cost / bytes``
#: priority first); ``"lru"`` is the pre-cost behaviour, kept for comparison
#: benchmarks and for workloads whose recompute costs are uniform.
EVICTION_POLICIES: tuple[str, ...] = ("cost", "lru")

#: The default policy of every bounded tier.
DEFAULT_EVICTION_POLICY: str = "cost"


def value_nbytes(value: Any) -> int:
    """A cheap byte-size estimate of a cached value.

    ndarrays report their buffer size, tuples sum their members, and
    everything else falls back to pickled length.  Estimates only steer
    eviction order and byte budgets — they never affect cached values, so a
    rough number is fine; the fallback is capped by the fact that cached
    artefacts are engine products (arrays, scalars, small tuples).
    """
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(value, tuple):
        return sum(value_nbytes(item) for item in value) + 16 * len(value)
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8", errors="replace"))
    if isinstance(value, (int, float, bool)) or value is None:
        return 32
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 64


@dataclass
class CacheStats:
    """Hit / miss / eviction counters of a cache backend.

    ``hits`` / ``misses`` / ``puts`` / ``evictions`` count in-process tier
    traffic.  The ``shared_*`` counters count the cross-process tier of the
    remote backend (zero on the local backend): ``shared_hits`` is the
    number of entries this run obtained from *another* process's work.  The
    cache server counts its own evictions (its ``stats`` op).
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    shared_hits: int = 0
    shared_misses: int = 0
    shared_puts: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def shared_hit_rate(self) -> float:
        total = self.shared_hits + self.shared_misses
        return self.shared_hits / total if total else 0.0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            **{f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        )

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        """One-line human-readable form (used by ``--cache-stats``)."""
        text = (
            f"hits={self.hits} misses={self.misses} "
            f"(rate {self.hit_rate:.1%}) puts={self.puts} evictions={self.evictions}"
        )
        if self.shared_hits or self.shared_misses or self.shared_puts:
            text += (
                f" | shared: hits={self.shared_hits} misses={self.shared_misses} "
                f"(rate {self.shared_hit_rate:.1%}) puts={self.shared_puts}"
            )
        return text


def telemetry_from_stats(
    stats: CacheStats,
    name: str,
    gauges: Optional[dict] = None,
    subsystem_extra: Optional[dict] = None,
) -> dict:
    """A backend's :class:`CacheStats` in the unified telemetry schema.

    Every backend's ``telemetry_snapshot()`` funnels through this, so the
    conformance suite can assert one shape — ``counters`` carries the raw
    tallies, ``gauges`` the derived rates (plus backend-specific occupancy),
    and ``subsystem`` identifies the backend.  The legacy ``stats()`` /
    :meth:`CacheStats.as_dict` surfaces stay untouched as the compatibility
    shim for existing callers.
    """
    gauges = dict(gauges or {})
    gauges.setdefault("hit_rate", round(stats.hit_rate, 6))
    gauges.setdefault("shared_hit_rate", round(stats.shared_hit_rate, 6))
    subsystem = {"name": "cache", "backend": name}
    subsystem.update(subsystem_extra or {})
    return unified_snapshot(
        counters=stats.as_dict(), gauges=gauges, histograms={}, subsystem=subsystem
    )


@runtime_checkable
class CacheBackend(Protocol):
    """What the execution engine requires of a cache backend.

    ``get`` returns ``None`` on a miss — backends never store ``None`` (the
    engine only caches computed artefacts, which are all non-``None``).
    ``clear(namespace)`` drops one namespace's entries; ``clear()`` drops
    everything.  Statistics accumulate across operations until
    :meth:`reset_stats`.
    """

    name: str

    def get(self, namespace: str, region: str, key: Hashable) -> Any: ...

    def put(
        self,
        namespace: str,
        region: str,
        key: Hashable,
        value: Any,
        cost: Optional[float] = None,
    ) -> None:
        """Store ``value``; ``cost`` is the recompute wall-clock in seconds.

        The cost is *metadata*: it steers cost-aware eviction order but never
        the stored value, so callers that cannot time the computation may
        always pass ``None`` (the entry competes with a neutral utility).
        """
        ...

    def clear(self, namespace: Optional[str] = None) -> None: ...

    def release(self, namespace: str) -> None:
        """Drop *this process's* storage for a namespace whose database died.

        Unlike :meth:`clear`, which removes a namespace everywhere (the
        invalidation path), ``release`` only reclaims in-process memory: on
        the remote backend the cache server is left intact, because another
        worker may still be serving the same logical database.
        Called by the engine registry when a database is garbage-collected;
        over-releasing is always safe — the next miss recomputes.
        """
        ...

    def stats(self) -> CacheStats: ...

    def reset_stats(self) -> None: ...

    def entry_count(self, namespace: Optional[str] = None) -> int: ...
