"""The in-process cache backend (the default) and the one eviction policy.

Storage layout: namespaces (one per database content fingerprint) hold one
store per region — a bounded :class:`UtilityCache` for the regions in
:data:`~repro.db.cache.backend.BOUNDED_REGIONS` (cost-normalized utility
eviction by default, ``policy="lru"`` for plain recency), a plain dict for
the small unbounded statistics regions.  This reproduces the cache structure
the execution engine owned before the backend layer was extracted, with hit
/ miss / eviction counters added.  :class:`UtilityCache` is also the store
of the cache server (:class:`~repro.db.cache.server.CacheStore` extends it),
so L1 and the server evict by one implementation.

Namespaces themselves are also a bounded LRU (``max_namespaces``).  The
pre-refactor engine freed its caches when its database was garbage-collected
(the engine registry is weak-keyed); a process-global backend cannot rely on
that, so instead the least-recently-touched namespace is dropped whole when
a database sweep (figure7 alone builds 12 instances) would otherwise pin
every instance's artefacts for the life of the process.  Dropping a live
namespace is always safe — the engine recomputes on the next miss.
"""

from __future__ import annotations

import heapq
import threading
from typing import Any, Hashable, Iterable, Optional, Union

from repro.db.cache.backend import (
    BOUNDED_REGIONS,
    DEFAULT_EVICTION_POLICY,
    EVICTION_POLICIES,
    REGION_MAX_BYTES,
    CacheStats,
    telemetry_from_stats,
    value_nbytes,
)

__all__ = ["LocalCacheBackend", "UtilityCache"]


class UtilityCache:
    """Bounded store with cost-normalized utility eviction.

    The policy is GreedyDual-Size-Frequency: each entry carries a priority
    ``H = L + frequency × cost / bytes`` where ``L`` is an inflating logical
    clock — on every eviction ``L`` rises to the evicted entry's priority, so
    long-untouched entries decay relative to fresh ones without any
    wall-clock time entering the decision.  Entries stored without a cost
    compete with a neutral utility term of ``1.0`` (pure frequency-aged
    FIFO), which keeps cost-less callers' eviction order deterministic and
    byte-size-independent.  Ties break on access sequence (oldest first),
    so eviction order is a pure function of the operation history.

    ``policy="lru"`` keeps the same mechanism but sets the priority to a
    monotonic access counter — exactly least-recently-used — so both
    policies share one code path and one byte budget.

    Bounds: ``max_entries`` caps the entry count, ``max_bytes`` (optional)
    caps the summed value sizes.  A value larger than the whole byte budget
    is not admitted at all — caching it would evict everything else for a
    single entry that cannot pay rent — and a refused put leaves any value
    already stored under the key in place.

    Each entry's raw cost is kept alongside its priority: the cache server
    returns it on hits and persists it (:meth:`metadata`, :meth:`restore`).

    Victims come off a lazy-deletion min-heap of ``(priority, seq, key)``,
    pushed on every access, so an evicting put costs O(log n) rather than a
    scan of every entry.  ``seq`` is unique per access, so a heap item is
    live exactly when its ``seq`` is still the entry's; stale items are
    skipped when popped, and the heap is rebuilt from the live entries
    whenever a push would take it past twice as many items as entries.
    """

    def __init__(
        self,
        max_entries: int,
        max_bytes: Optional[int] = None,
        policy: str = DEFAULT_EVICTION_POLICY,
    ):
        if policy not in EVICTION_POLICIES:
            raise ValueError(f"unknown eviction policy {policy!r} (use one of {EVICTION_POLICIES})")
        self.max_entries = int(max_entries)
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        self.policy = policy
        self._data: dict[Hashable, Any] = {}
        #: key -> [priority, seq, nbytes, freq, term, cost]
        self._meta: dict[Hashable, list] = {}
        self._clock = 0.0  # the inflating GDSF clock L
        self._seq = 0  # access sequence: tie-break + LRU counter
        self._bytes = 0
        self._heap: list[tuple] = []  # (priority, seq, key), some stale

    # ------------------------------------------------------------------
    def _priority(self, seq: int, freq: int, term: float) -> float:
        if self.policy == "lru":
            return float(seq)  # most recent access wins, nothing else
        return self._clock + freq * term

    def get(self, key: Hashable) -> Any:
        try:
            value = self._data[key]
        except KeyError:
            return None
        meta = self._meta[key]
        self._seq += 1
        meta[1] = self._seq
        meta[3] += 1  # frequency
        meta[0] = self._priority(meta[1], meta[3], meta[4])
        self._push(key, meta)
        return value

    def cost(self, key: Hashable) -> Optional[float]:
        """The recompute cost the entry was stored with (``None`` when it was
        stored without one, or is not stored)."""
        meta = self._meta.get(key)
        return None if meta is None else meta[5]

    def put(self, key: Hashable, value: Any, cost: Optional[float] = None) -> Optional[list]:
        """Insert ``value``; return the evicted keys, or ``None`` when the
        value is larger than the whole byte budget and was not admitted."""
        nbytes = value_nbytes(value)
        if self.max_bytes is not None and nbytes > self.max_bytes:
            return None
        self._discard(key)
        self._seq += 1
        self._insert(key, value, cost, nbytes, 1, self._seq, None)
        return self._evict_over_budget()

    def _insert(
        self,
        key: Hashable,
        value: Any,
        cost: Optional[float],
        nbytes: int,
        freq: int,
        seq: int,
        priority: Optional[float],
    ) -> None:
        term = 1.0 if cost is None else max(float(cost), 0.0) / max(nbytes, 1)
        if priority is None:
            priority = self._priority(seq, freq, term)
        self._data[key] = value
        meta = self._meta[key] = [priority, seq, nbytes, freq, term, cost]
        self._bytes += nbytes
        self._push(key, meta)

    def _push(self, key: Hashable, meta: list) -> None:
        """Record the entry's current ``(priority, seq)`` on the heap."""
        if len(self._heap) >= 2 * len(self._meta):
            self._rebuild_heap()  # drops the stale items; ``key`` is in it now
        else:
            heapq.heappush(self._heap, (meta[0], meta[1], key))

    def _rebuild_heap(self) -> None:
        self._heap = [(meta[0], meta[1], key) for key, meta in self._meta.items()]
        heapq.heapify(self._heap)

    def _evict_over_budget(self) -> list:
        """Evict lowest-priority entries (ties: oldest access) until both
        bounds hold, raising the decay clock to each victim's priority;
        return the evicted keys."""
        evicted = []
        while len(self._data) > self.max_entries or (
            self.max_bytes is not None and self._bytes > self.max_bytes and len(self._data) > 1
        ):
            priority, seq, victim = heapq.heappop(self._heap)
            meta = self._meta.get(victim)
            if meta is None or meta[1] != seq:
                continue  # stale: the entry was accessed again or is gone
            self._discard(victim)
            if self.policy != "lru":
                self._clock = max(self._clock, priority)
            evicted.append(victim)
        return evicted

    def _discard(self, key: Hashable) -> None:
        """Drop ``key`` if stored (not an eviction: the clock is untouched)."""
        if self._data.pop(key, None) is not None:
            self._bytes -= self._meta.pop(key)[2]

    def clear(self) -> None:
        self._data.clear()
        self._meta.clear()
        self._heap.clear()
        self._bytes = 0
        self._clock = 0.0

    # ------------------------------------------------------------------
    # persistence support (the cache server's sqlite write-through)
    # ------------------------------------------------------------------
    def metadata(self, key: Hashable) -> Optional[tuple]:
        """``(cost, nbytes, freq, seq, priority)`` of a stored entry: the
        access metadata a persistent store saves next to the value so that
        :meth:`restore` can reinstate the entry's eviction standing."""
        meta = self._meta.get(key)
        return None if meta is None else (meta[5], meta[2], meta[3], meta[1], meta[0])

    def restore(self, entries: Iterable[tuple], clock: float) -> list:
        """Reinstate persisted ``(key, value, cost, freq, seq, priority)``
        entries and the decay clock, then evict down to this cache's bounds
        (the entries may have been saved under larger ones); return the
        evicted keys."""
        self._clock = float(clock)
        for key, value, cost, freq, seq, priority in entries:
            self._insert(key, value, cost, value_nbytes(value), freq, seq, priority)
            self._seq = max(self._seq, seq)
        # A persisted seq may repeat one a stale heap item still carries.
        self._rebuild_heap()
        return self._evict_over_budget()

    @property
    def nbytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._data)


class LocalCacheBackend:
    """In-process cache storage with namespaced regions and counters.

    One lock guards every public method: a query server's engine threads
    share one backend, and eviction iterates stores another thread may be
    mutating.  It is re-entrant because ``clear`` and
    ``telemetry_snapshot`` call other public methods.
    """

    name = "local"

    def __init__(
        self,
        max_entries: int = 192,
        max_namespaces: int = 8,
        policy: str = DEFAULT_EVICTION_POLICY,
        max_bytes: Optional[int] = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if max_namespaces < 1:
            raise ValueError("max_namespaces must be at least 1")
        if policy not in EVICTION_POLICIES:
            raise ValueError(f"unknown eviction policy {policy!r} (use one of {EVICTION_POLICIES})")
        self.max_entries = int(max_entries)
        self.max_namespaces = int(max_namespaces)
        self.policy = policy
        #: Optional byte budget of each bounded (namespace, region) store,
        #: mirroring how ``max_entries`` bounds each store individually; a
        #: region in ``REGION_MAX_BYTES`` never gets more than its cap.
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        #: namespace -> region -> store, insertion-ordered by recency of use.
        self._namespaces: dict[str, dict[str, Union[UtilityCache, dict]]] = {}
        self._stats = CacheStats()
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def _regions(self, namespace: str) -> dict[str, Union[UtilityCache, dict]]:
        """The namespace's region map, freshened in the namespace LRU."""
        regions = self._namespaces.pop(namespace, None)
        if regions is None:
            regions = {}
            while len(self._namespaces) >= self.max_namespaces:
                stale = self._namespaces.pop(next(iter(self._namespaces)))
                self._stats.evictions += sum(len(store) for store in stale.values())
        self._namespaces[namespace] = regions
        return regions

    def _store(self, namespace: str, region: str) -> Union[UtilityCache, dict]:
        regions = self._regions(namespace)
        store = regions.get(region)
        if store is None:
            if region in BOUNDED_REGIONS:
                max_bytes = self.max_bytes
                cap = REGION_MAX_BYTES.get(region)
                if cap is not None and (max_bytes is None or cap < max_bytes):
                    max_bytes = cap
                store = UtilityCache(self.max_entries, max_bytes, self.policy)
            else:
                store = {}
            regions[region] = store
        return store

    # ------------------------------------------------------------------
    def get(self, namespace: str, region: str, key: Hashable) -> Any:
        # Lookups never create (or evict) namespaces; only ``put`` does.
        with self._lock:
            value = None
            regions = self._namespaces.get(namespace)
            if regions is not None:
                self._namespaces.pop(namespace)  # freshen in the namespace LRU
                self._namespaces[namespace] = regions
                store = regions.get(region)
                if store is not None:
                    value = store.get(key)
            if value is None:
                self._stats.misses += 1
            else:
                self._stats.hits += 1
            return value

    def put(
        self,
        namespace: str,
        region: str,
        key: Hashable,
        value: Any,
        cost: Optional[float] = None,
    ) -> None:
        with self._lock:
            self._put(namespace, region, key, value, cost)
            self._stats.puts += 1

    def _put(
        self,
        namespace: str,
        region: str,
        key: Hashable,
        value: Any,
        cost: Optional[float] = None,
    ) -> None:
        """Insert without counting a put (used for cross-tier promotions)."""
        with self._lock:
            store = self._store(namespace, region)
            if isinstance(store, UtilityCache):
                evicted = store.put(key, value, cost)
                if evicted:
                    self._stats.evictions += len(evicted)
            else:
                store[key] = value

    def clear(self, namespace: Optional[str] = None) -> None:
        """Drop one namespace, or — with no argument — everything.

        A full clear is a fresh start and also zeroes the statistics
        counters; a namespace clear leaves them accumulating.  This is the
        cross-backend contract pinned by the conformance suite (the backends
        used to disagree on it).
        """
        with self._lock:
            if namespace is None:
                self._namespaces.clear()
                self.reset_stats()
            else:
                self._namespaces.pop(namespace, None)

    def release(self, namespace: str) -> None:
        """Everything here is in-process storage, so releasing == clearing."""
        self.clear(namespace)

    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(**self._stats.as_dict())

    def reset_stats(self) -> None:
        with self._lock:
            self._stats = CacheStats()

    def entry_count(self, namespace: Optional[str] = None) -> int:
        with self._lock:
            return sum(
                len(store)
                for ns, regions in self._namespaces.items()
                if namespace is None or ns == namespace
                for store in regions.values()
            )

    def byte_count(self, namespace: Optional[str] = None) -> int:
        """Summed size estimate of the bounded stores' values."""
        with self._lock:
            return sum(
                store.nbytes
                for ns, regions in self._namespaces.items()
                if namespace is None or ns == namespace
                for store in regions.values()
                if isinstance(store, UtilityCache)
            )

    def telemetry_snapshot(self) -> dict:
        """This backend's counters in the unified telemetry schema
        (``stats()`` remains the legacy-shaped compatibility surface)."""
        with self._lock:
            return telemetry_from_stats(
                self.stats(),
                self.name,
                gauges={
                    "entries": self.entry_count(),
                    "bytes": self.byte_count(),
                },
                subsystem_extra={
                    "policy": self.policy,
                    "max_entries": self.max_entries,
                    "degraded": False,
                },
            )

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalCacheBackend(max_entries={self.max_entries}, "
            f"namespaces={len(self._namespaces)}/{self.max_namespaces}, "
            f"entries={self.entry_count()}, {self._stats.summary()})"
        )
