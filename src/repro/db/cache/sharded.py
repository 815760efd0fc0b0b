"""Consistent-hash sharding of the cache-server keyspace.

:class:`ShardedCacheBackend` composes N :class:`RemoteCacheBackend`\\ s — one
per ``repro.db.cache.server`` instance — behind the ordinary
:class:`~repro.db.cache.backend.CacheBackend` protocol, so everything above
the cache layer (engine, runner, serving) is oblivious to how many servers
exist.  Placement comes from the :class:`~repro.db.cache.ring.HashRing` keyed
on the canonical ``encode_key(namespace, region, key)`` bytes — the
namespaced fingerprint — so entries spread at per-artefact granularity (a
whole database's worth of artefacts is *not* pinned to one shard) and every
client with the same shard list computes the identical placement with no
coordination.

Replication and the failover ladder
-----------------------------------

With ``replicas > 1`` each write also lands on the next distinct shard(s)
clockwise on the ring.  ``replicate_namespaces`` restricts that to the hot
namespaces worth the extra bytes (``None`` replicates everything).  Reads go
to the primary; **only when the primary's remote tier is out of service**
(its circuit breaker open or probing) does the read fail over to the
replica.  Each composed backend keeps its own L1 + breaker + retry/backoff
machinery, so the full ladder for one entry is::

    primary L1  →  primary server  →  (primary breaker open?)  replica
    server  →  recompute locally (pure function of the key — byte-identical,
    just slower)

A dead shard therefore costs the keys it owned (minus replicated ones), never
correctness — the same contract the single-server backend already honours.

Budget note: the *analyst ledger* is *not* behind this class.  Analysts are
routed to a home serving shard by the fleet router using the same hash ring
(see ``repro.serving.fleet``); this backend only shards content-addressed
artefacts, which are pure values and safe to place anywhere.
"""

from __future__ import annotations

from typing import Any, Collection, Hashable, List, Optional, Sequence

from repro.db.cache.backend import (
    DEFAULT_EVICTION_POLICY,
    SHARED_REGIONS,
    CacheStats,
    telemetry_from_stats,
)
from repro.db.cache.remote import RemoteCacheBackend, parse_cache_url
from repro.db.cache.ring import HashRing
from repro.db.cache.wire import encode_key
from repro.obs.metrics import active_registry

__all__ = ["ShardedCacheBackend", "parse_shard_urls"]


def parse_shard_urls(url: str) -> List[str]:
    """A comma-separated ``host:port,host:port`` list → normalised labels.

    Single-element lists are fine (they mean "no sharding"); every element
    must parse as a cache url, and duplicates are rejected — a repeated
    shard would silently halve the keyspace it owns.
    """
    labels: List[str] = []
    for part in str(url).split(","):
        part = part.strip()
        if not part:
            continue
        host, port = parse_cache_url(part)
        labels.append(f"{host}:{port}")
    if not labels:
        raise ValueError(f"no cache shards in url list {url!r}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate cache shards in url list {url!r}")
    return labels


class ShardedCacheBackend:
    """N remote cache backends behind one consistent-hash ring."""

    name = "sharded"

    def __init__(
        self,
        urls: Optional[Sequence[str]] = None,
        shards: Optional[Sequence[RemoteCacheBackend]] = None,
        replicas: int = 1,
        replicate_namespaces: Optional[Collection[str]] = None,
        vnodes: int = 64,
        max_entries: int = 192,
        remote_regions: frozenset = SHARED_REGIONS,
        policy: str = DEFAULT_EVICTION_POLICY,
        max_bytes: Optional[int] = None,
        **remote_kwargs: Any,
    ):
        """Compose cache shards behind one ring.

        Pass ``urls`` (each ``host:port``) to build one
        :class:`RemoteCacheBackend` per shard with the shared configuration
        (``max_entries``/``policy``/``max_bytes`` size the per-shard L1
        exactly as a single remote backend would be sized; extra
        ``remote_kwargs`` — timeouts, retry and breaker knobs — are handed
        through), or ``shards`` to supply pre-built backends (tests route
        them through chaos proxies this way).  ``replicas`` is clamped to
        the shard count; ``replicate_namespaces=None`` replicates every
        namespace when ``replicas > 1``.
        """
        if (urls is None) == (shards is None):
            raise ValueError("pass exactly one of urls= or shards=")
        if shards is not None:
            self.shards: List[RemoteCacheBackend] = list(shards)
            labels = [f"{shard.host}:{shard.port}" for shard in self.shards]
        else:
            labels = []
            for url in urls:
                labels.extend(parse_shard_urls(url))
            self.shards = [
                RemoteCacheBackend(
                    url=label,
                    max_entries=max_entries,
                    remote_regions=remote_regions,
                    policy=policy,
                    max_bytes=max_bytes,
                    **remote_kwargs,
                )
                for label in labels
            ]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate cache shards: {labels!r}")
        self.labels = tuple(labels)
        self._by_label = dict(zip(self.labels, self.shards))
        self.ring = HashRing(self.labels, vnodes=vnodes)
        self.replicas = max(1, min(int(replicas), len(self.shards)))
        self.replicate_namespaces = (
            frozenset(str(item) for item in replicate_namespaces)
            if replicate_namespaces is not None
            else None
        )
        self.remote_regions = frozenset(remote_regions)
        self.max_entries = self.shards[0].max_entries
        self.policy = self.shards[0].policy
        self._failover_hits = 0

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _copies(self, namespace: str) -> int:
        if self.replicas == 1:
            return 1
        if self.replicate_namespaces is None or namespace in self.replicate_namespaces:
            return self.replicas
        return 1

    def _placement(self, namespace: str, region: str, key: Hashable) -> List[str]:
        """Ordered shard labels for one address: primary first, replicas after."""
        return self.ring.preference(
            encode_key(namespace, region, key), self._copies(namespace)
        )

    # ------------------------------------------------------------------
    # the CacheBackend protocol
    # ------------------------------------------------------------------
    def get(self, namespace: str, region: str, key: Hashable) -> Any:
        placement = self._placement(namespace, region, key)
        primary = self._by_label[placement[0]]
        value = primary.get(namespace, region, key)
        if value is not None:
            return value
        if len(placement) > 1 and primary.degraded:
            # Failover rung: the primary's remote tier is out of service
            # (breaker open/probing), so ask the replica(s) before falling
            # back to a recompute.  A mere miss on a healthy primary does
            # NOT consult replicas — writes land on both, so a healthy miss
            # means the entry genuinely is not cached.
            for label in placement[1:]:
                value = self._by_label[label].get(namespace, region, key)
                if value is not None:
                    self._failover_hits += 1
                    active_registry().counter("cache_shard_failover_hits_total").inc()
                    return value
        return None

    def put(
        self,
        namespace: str,
        region: str,
        key: Hashable,
        value: Any,
        cost: Optional[float] = None,
    ) -> None:
        for label in self._placement(namespace, region, key):
            self._by_label[label].put(namespace, region, key, value, cost)

    def clear(self, namespace: Optional[str] = None) -> None:
        for shard in self.shards:
            shard.clear(namespace)
        if namespace is None:
            self._failover_hits = 0

    def release(self, namespace: str) -> None:
        for shard in self.shards:
            shard.release(namespace)

    def stats(self) -> CacheStats:
        total = CacheStats()
        for shard in self.shards:
            total = total + shard.stats()
        return total

    def reset_stats(self) -> None:
        self._failover_hits = 0
        for shard in self.shards:
            shard.reset_stats()

    def entry_count(self, namespace: Optional[str] = None) -> int:
        # Replicated entries are counted once per holding shard — this is a
        # capacity gauge over real storage, not a distinct-key count.
        return sum(shard.entry_count(namespace) for shard in self.shards)

    # ------------------------------------------------------------------
    # observability beyond the protocol
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Local-only is the *last* rung: the composite is degraded only
        when every shard's remote tier is out of service."""
        return all(shard.degraded for shard in self.shards)

    @property
    def failover_hits(self) -> int:
        return self._failover_hits

    def remote_io(self) -> dict:
        totals = {"bytes_sent": 0, "bytes_received": 0}
        for shard in self.shards:
            io = shard.remote_io()
            totals["bytes_sent"] += io["bytes_sent"]
            totals["bytes_received"] += io["bytes_received"]
        return totals

    def telemetry_snapshot(self) -> dict:
        """Fleet-wide counters in the unified schema, with one labelled
        per-shard snapshot each under ``subsystem.shards`` (the per-shard
        subsystem labels the router's aggregated ``telemetry`` op surfaces).
        """
        per_shard = []
        for label, shard in zip(self.labels, self.shards):
            snapshot = shard.telemetry_snapshot()
            subsystem = dict(snapshot.get("subsystem", {}))
            subsystem["shard"] = label
            snapshot["subsystem"] = subsystem
            per_shard.append(snapshot)
        merged = telemetry_from_stats(
            self.stats(),
            self.name,
            gauges={"shards": len(self.shards)},
            subsystem_extra={
                "policy": self.policy,
                "replicas": self.replicas,
                "degraded": self.degraded,
                "ring_vnodes": self.ring.vnodes,
                "shards": [snap["subsystem"] for snap in per_shard],
            },
        )
        # The CacheStats-derived counters are already fleet sums (stats()
        # adds the shards); only the remote-specific extras need summing
        # here.  Ratios (hit_rate) are never summed.
        extra_counters = (
            "bytes_sent",
            "bytes_received",
            "put_short_circuits",
            "put_bytes_saved",
            "breaker_trips",
        )
        for snapshot in per_shard:
            for key in extra_counters:
                amount = snapshot.get("counters", {}).get(key, 0)
                merged["counters"][key] = merged["counters"].get(key, 0) + amount
            for key in ("entries", "bytes"):
                amount = snapshot.get("gauges", {}).get(key, 0)
                merged["gauges"][key] = merged["gauges"].get(key, 0) + amount
        merged["counters"]["failover_hits"] = self._failover_hits
        return merged

    def breaker_stats(self) -> dict:
        """Per-shard breaker state plus fleet rollups (trips, open shards)."""
        per_shard = {
            label: shard.breaker_stats()
            for label, shard in zip(self.labels, self.shards)
        }
        open_shards = [
            label
            for label, stats in per_shard.items()
            if stats.get("state") != "closed"
        ]
        return {
            "state": "closed" if not open_shards else "degraded",
            "trips": sum(int(s.get("trips", 0)) for s in per_shard.values()),
            "open_shards": open_shards,
            "failover_hits": self._failover_hits,
            "shards": per_shard,
        }

    def server_stats(self) -> Optional[dict]:
        """Per-shard server counters keyed by shard label (unreachable
        shards map to ``None``)."""
        stats = {
            label: shard.server_stats()
            for label, shard in zip(self.labels, self.shards)
        }
        return stats if any(value is not None for value in stats.values()) else None

    # ------------------------------------------------------------------
    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedCacheBackend({len(self.shards)} shards, "
            f"replicas={self.replicas}, {self.stats().summary()})"
        )
