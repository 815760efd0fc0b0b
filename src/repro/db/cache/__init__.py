"""Backend-agnostic caching for the execution layer.

The package splits what used to be hard-wired inside
:class:`~repro.db.engine.ExecutionEngine` into three orthogonal pieces:

* :mod:`repro.db.cache.fingerprints` — the semantic cache keys (predicate /
  selection / query fingerprints, database content namespaces);
* :mod:`repro.db.cache.backend` — the :class:`CacheBackend` protocol, the
  region vocabulary and the :class:`CacheStats` counters;
* the interchangeable implementations:
  :class:`~repro.db.cache.local.LocalCacheBackend` (in-process, default)
  and :class:`~repro.db.cache.remote.RemoteCacheBackend` (a TCP client of
  the out-of-process persistent cache server in
  :mod:`repro.db.cache.server`; the one cross-process path, which a run's
  forked workers share through ``--cache-path``).  One
  :class:`~repro.db.cache.local.UtilityCache` implements eviction for both
  the in-process tier and the server.  See ``docs/CACHE.md``.

One backend instance is *active* per process at any time
(:func:`active_backend`); every engine obtained through
``ExecutionEngine.for_database`` routes its cache traffic through it
dynamically, so installing a backend (``--cache-backend remote``) takes
effect for every database in the run — including engines that already exist,
and engines inherited by forked pool workers.  Engines constructed directly
(``ExecutionEngine(db)``) get a private local backend instead and are fully
isolated, which tests and ablations rely on.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.db.cache.backend import (
    BOUNDED_REGIONS,
    DEFAULT_EVICTION_POLICY,
    EVICTION_POLICIES,
    REGIONS,
    SHARED_REGIONS,
    CacheBackend,
    CacheStats,
    value_nbytes,
)
from repro.db.cache.fingerprints import (
    database_fingerprint,
    measure_fingerprint,
    predicate_fingerprint,
    query_fingerprint,
    selection_fingerprint,
)
from repro.db.cache.local import LocalCacheBackend
from repro.db.cache.remote import RemoteCacheBackend, parse_cache_url
from repro.db.cache.ring import HashRing
from repro.db.cache.sharded import ShardedCacheBackend, parse_shard_urls

__all__ = [
    "BOUNDED_REGIONS",
    "CACHE_BACKENDS",
    "CacheBackend",
    "CacheStats",
    "DEFAULT_EVICTION_POLICY",
    "EVICTION_POLICIES",
    "HashRing",
    "LocalCacheBackend",
    "REGIONS",
    "RemoteCacheBackend",
    "SHARED_REGIONS",
    "ShardedCacheBackend",
    "active_backend",
    "backend_scope",
    "database_fingerprint",
    "make_backend",
    "measure_fingerprint",
    "parse_cache_url",
    "parse_shard_urls",
    "predicate_fingerprint",
    "query_fingerprint",
    "selection_fingerprint",
    "set_active_backend",
    "value_nbytes",
]

#: Backend names accepted by configuration (CLI ``--cache-backend``).
CACHE_BACKENDS: tuple[str, ...] = ("local", "remote")


def make_backend(
    name: str,
    max_entries: int = 192,
    url: "str | None" = None,
    path: "str | None" = None,
    policy: str = DEFAULT_EVICTION_POLICY,
    max_bytes: "int | None" = None,
    replicas: int = 1,
) -> CacheBackend:
    """Build a cache backend by its configuration name.

    ``max_entries`` bounds every bounded region; for the remote backend an
    embedded server is bounded proportionally (16 × ``max_entries``, the
    default 192 → 3072 entries) so ``--cache-size`` also governs the
    out-of-process footprint.  ``policy`` selects the eviction policy of
    every bounded tier (``--cache-policy``, default cost-normalized
    utility); ``max_bytes`` adds a byte budget per bounded store
    (``--cache-max-bytes``), with an embedded server again bounded at 16 ×
    that budget.  The remote backend needs a server: ``url``
    (``--cache-url host:port``) names a running
    ``python -m repro.db.cache.server``; ``path`` (``--cache-path``) starts
    an embedded one persisting to that sqlite file instead, which every
    worker the run forks afterwards shares.  A
    *comma-separated* ``url`` list (``--cache-url h:p1,h:p2``) shards the
    keyspace across those servers on a consistent-hash ring
    (:class:`~repro.db.cache.sharded.ShardedCacheBackend`); ``replicas``
    then writes each entry to that many distinct shards and reads fail over
    when a primary's breaker is open.
    """
    server_bytes = None if max_bytes is None else int(max_bytes) * 16
    if name == "local":
        return LocalCacheBackend(max_entries, policy=policy, max_bytes=max_bytes)
    if name == "remote":
        shard_labels = parse_shard_urls(url) if url is not None else None
        if shard_labels is not None and len(shard_labels) > 1:
            if path is not None:
                raise ValueError("pass either a shard url list or path=, not both")
            return ShardedCacheBackend(
                urls=shard_labels,
                replicas=replicas,
                max_entries=max_entries,
                server_max_entries=max_entries * 16,
                policy=policy,
                max_bytes=max_bytes,
                server_max_bytes=server_bytes,
            )
        return RemoteCacheBackend(
            url=shard_labels[0] if shard_labels is not None else None,
            path=path, max_entries=max_entries,
            server_max_entries=max_entries * 16,
            policy=policy,
            max_bytes=max_bytes,
            server_max_bytes=server_bytes,
        )
    raise ValueError(f"unknown cache backend {name!r}; available: {CACHE_BACKENDS}")


#: The process-wide active backend (lazily a LocalCacheBackend).  Forked
#: workers inherit whatever was active in the parent at fork time, which is
#: how a pre-fork RemoteCacheBackend ends up serving the whole pool.
_ACTIVE: Optional[CacheBackend] = None


def active_backend() -> CacheBackend:
    """The backend engines obtained via ``for_database`` currently route to."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = LocalCacheBackend()
    return _ACTIVE


def set_active_backend(backend: Optional[CacheBackend]) -> Optional[CacheBackend]:
    """Install ``backend`` as the process-wide active backend.

    Returns the previously installed backend (``None`` if the lazy default
    had not been materialised yet) so callers can restore it.  Passing
    ``None`` resets to a lazily created fresh local backend.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = backend
    return previous


@contextmanager
def backend_scope(backend: CacheBackend) -> Iterator[CacheBackend]:
    """Run a block with ``backend`` active, restoring the previous one after.

    The backend is *not* closed on exit — the caller owns its lifecycle
    (a remote backend's embedded server usually outlives several scopes).
    """
    previous = set_active_backend(backend)
    try:
        yield backend
    finally:
        set_active_backend(previous)
