"""Suite for the pluggable cache-backend layer (:mod:`repro.db.cache`).

The heart of the file is the **cross-backend conformance harness**: one
suite parameterized over every backend — ``local``, ``remote`` (a client of
an out-of-process cache server) and ``embedded`` (the remote backend
starting its own server, the ``--cache-path`` form a run's workers share) —
pinning the protocol semantics all of them must agree on (see
docs/CACHE.md):

* misses are ``None``; values round-trip bit-identically;
* hit / miss / put / eviction counters, and the ``clear()`` contract —
  a full ``clear()`` resets the counters, a namespace ``clear(ns)`` leaves
  them accumulating (the backends used to disagree on this);
* content-derived namespacing, isolation and cross-tier clearing;
* bounded-region LRU eviction under ``--cache-size``;
* ``invalidate()`` after an in-place database mutation leaves no stale
  cube, mask or memoized answer reachable and resets the stats counters.

Backend-specific behaviour (the remote tier's promotion rules, the
namespace LRU and thread safety of the local backend) keeps its own sections
below; the cache *server* itself — wire formats, persistence, failure
injection — is covered in ``tests/test_cache_server.py``.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading

import numpy as np
import pytest

from repro.db.cache import (
    BOUNDED_REGIONS,
    CacheBackend,
    CacheStats,
    LocalCacheBackend,
    REGIONS,
    RemoteCacheBackend,
    SHARED_REGIONS,
    active_backend,
    backend_scope,
    database_fingerprint,
    make_backend,
    set_active_backend,
)
from repro.db.cache.backend import REGION_MAX_BYTES, value_nbytes
from repro.db.cache.local import UtilityCache
from repro.db.cache.server import CacheServerThread
from repro.db.engine import ExecutionEngine
from repro.db.executor import QueryExecutor
from repro.db.join import execute_by_materialised_join
from repro.datagen.ssb import ssb_schema
from repro.workloads.ssb_queries import ssb_query

#: Every backend the conformance suite runs over; ``embedded`` is the remote
#: backend owning an embedded server (``--cache-path``).
ALL_BACKENDS = ("local", "remote", "embedded")

#: A bounded region that stays in-process on every backend (not written
#: through to a cache server), so LRU and entry-count assertions read the
#: same storage everywhere.
LOCAL_BOUNDED_REGION = "predicate_mask"

#: An unbounded region that stays in-process on every backend.
LOCAL_UNBOUNDED_REGION = "fan_out"


@pytest.fixture(params=ALL_BACKENDS)
def any_backend(request, tmp_path):
    """A small instance of each backend; remote gets its own live server."""
    if request.param == "remote":
        with CacheServerThread(max_entries=512) as handle:
            backend = RemoteCacheBackend(
                host="127.0.0.1", port=handle.server.port, max_entries=32
            )
            yield backend
            backend.close()
    else:
        backend = _make(request.param, 32, tmp_path)
        yield backend
        _close(backend)


def _make(name, max_entries, tmp_path):
    """``make_backend`` for a local or embedded conformance backend."""
    if name == "embedded":
        return make_backend("remote", max_entries, path=str(tmp_path / "cache.db"))
    return make_backend(name, max_entries)


def _close(backend) -> None:
    close = getattr(backend, "close", None)
    if close is not None:
        close()


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            make_backend("redis")

    def test_remote_without_server_address_rejected(self):
        with pytest.raises(ValueError):
            make_backend("remote")

    def test_every_engine_region_is_declared(self):
        # The engine's regions and the registry must not drift apart.
        assert BOUNDED_REGIONS <= set(REGIONS)
        assert SHARED_REGIONS <= set(REGIONS)
        assert LOCAL_BOUNDED_REGION in BOUNDED_REGIONS - SHARED_REGIONS
        assert LOCAL_UNBOUNDED_REGION in set(REGIONS) - BOUNDED_REGIONS - SHARED_REGIONS

    def test_active_backend_scope(self):
        original = active_backend()
        replacement = LocalCacheBackend(8)
        with backend_scope(replacement):
            assert active_backend() is replacement
        assert active_backend() is original

    def test_set_active_backend_returns_previous(self):
        original = active_backend()
        replacement = LocalCacheBackend(8)
        assert set_active_backend(replacement) is original
        assert set_active_backend(original) is replacement
        assert active_backend() is original


# ----------------------------------------------------------------------
# the cross-backend conformance suite
# ----------------------------------------------------------------------
class TestConformanceProtocol:
    def test_satisfies_protocol(self, any_backend):
        assert isinstance(any_backend, CacheBackend)
        assert any_backend.name in ALL_BACKENDS

    def test_miss_is_none(self, any_backend):
        assert any_backend.get("ns", "cube", "missing") is None

    def test_round_trip_preserves_bits(self, any_backend):
        values = np.array([1.25, -3.5e300, 0.0, 7e-17])
        any_backend.put("ns", "cube", ("k", 1, 0.5), values)
        fetched = any_backend.get("ns", "cube", ("k", 1, 0.5))
        np.testing.assert_array_equal(fetched, values)
        assert fetched.dtype == values.dtype

    def test_tuple_values_round_trip(self, any_backend):
        value = (np.arange(6, dtype=np.int64), np.linspace(0.0, 1.0, 6), 41.5)
        any_backend.put("ns", "sorted_contribution", "q", value)
        fetched = any_backend.get("ns", "sorted_contribution", "q")
        assert isinstance(fetched, tuple) and fetched[2] == 41.5
        np.testing.assert_array_equal(fetched[0], value[0])
        np.testing.assert_array_equal(fetched[1], value[1])


class TestConformanceStats:
    def test_hit_miss_put_counters(self, any_backend):
        assert any_backend.get("ns", "cube", "k") is None
        any_backend.put("ns", "cube", "k", 1.5)
        assert any_backend.get("ns", "cube", "k") == 1.5
        stats = any_backend.stats()
        assert stats.misses == 1 and stats.hits == 1 and stats.puts == 1
        any_backend.reset_stats()
        zeroed = any_backend.stats()
        assert (zeroed.hits, zeroed.misses, zeroed.puts) == (0, 0, 0)

    def test_bounded_region_evicts_at_cache_size(self, any_backend):
        small = (
            any_backend
            if any_backend.name == "local"
            else any_backend._local  # the in-process tier enforces the bound
        )
        for index in range(4):
            any_backend.put("ns", LOCAL_BOUNDED_REGION, index, float(index))
        # The two oldest entries were evicted from the bounded LRU ...
        assert small.entry_count("ns") <= small.max_entries
        assert any_backend.get("ns", LOCAL_BOUNDED_REGION, 3) == 3.0

    def test_eviction_counter_counts_lru_overflow(self, tmp_path):
        # The eviction counter itself, at a tiny bound, on every backend.
        for name in ALL_BACKENDS:
            if name == "remote":
                with CacheServerThread(max_entries=512) as handle:
                    backend = RemoteCacheBackend(
                        host="127.0.0.1", port=handle.server.port, max_entries=2
                    )
                    self._assert_evictions(backend)
                    backend.close()
            else:
                backend = _make(name, 2, tmp_path)
                try:
                    self._assert_evictions(backend)
                finally:
                    _close(backend)

    @staticmethod
    def _assert_evictions(backend) -> None:
        for index in range(4):
            backend.put("ns", LOCAL_BOUNDED_REGION, index, float(index))
        assert backend.stats().evictions == 2
        assert backend.entry_count("ns") == 2

    def test_unbounded_region_never_evicts(self, any_backend):
        for index in range(50):
            any_backend.put("ns", LOCAL_UNBOUNDED_REGION, index, float(index))
        assert any_backend.stats().evictions == 0
        assert any_backend.entry_count("ns") == 50


class TestConformanceClearContract:
    """``clear()`` resets the counters; ``clear(namespace)`` does not."""

    def test_full_clear_resets_stats_and_storage(self, any_backend):
        any_backend.put("ns", "cube", "k", 1.0)
        any_backend.get("ns", "cube", "k")
        any_backend.get("ns", "cube", "missing")
        assert any_backend.stats().puts == 1
        any_backend.clear()
        assert any_backend.entry_count() == 0
        stats = any_backend.stats()
        assert (stats.hits, stats.misses, stats.puts, stats.evictions) == (0, 0, 0, 0)
        assert (stats.shared_hits, stats.shared_misses, stats.shared_puts) == (0, 0, 0)

    def test_namespace_clear_preserves_stats(self, any_backend):
        any_backend.put("ns", "cube", "k", 1.0)
        any_backend.get("ns", "cube", "k")
        any_backend.get("ns", "cube", "missing")
        before = any_backend.stats()
        any_backend.clear("ns")
        after = any_backend.stats()
        assert after.hits == before.hits == 1
        assert after.misses == before.misses
        assert after.puts == before.puts == 1
        assert any_backend.get("ns", "cube", "k") is None


class TestConformanceNamespacing:
    def test_namespaces_are_isolated(self, any_backend):
        any_backend.put("ns-a", "result", "k", 1.0)
        assert any_backend.get("ns-b", "result", "k") is None
        any_backend.put("ns-b", "result", "k", 2.0)
        assert any_backend.get("ns-a", "result", "k") == 1.0
        any_backend.clear("ns-a")
        assert any_backend.get("ns-a", "result", "k") is None
        assert any_backend.get("ns-b", "result", "k") == 2.0

    def test_namespace_clear_reaches_every_tier(self, any_backend):
        """A cleared namespace must not resurface from the server tier."""
        any_backend.put("ns", "result", "k", 3.0)  # "result" is cross-tier
        any_backend.clear("ns")
        # Even with the in-process tier emptied, nothing may come back.
        if hasattr(any_backend, "_local"):
            any_backend._local.clear()
        assert any_backend.get("ns", "result", "k") is None
        assert any_backend.entry_count("ns") == 0


class TestConformanceInvalidate:
    def test_mutation_then_invalidate_leaves_no_stale_answer(self, ssb_small, any_backend):
        engine = ExecutionEngine(ssb_small, backend=any_backend)
        executor = QueryExecutor(ssb_small, engine=engine)
        query = ssb_query("Qc1", ssb_schema())
        stale_answer = executor.execute(query)
        stale_mask = engine.selection_mask(query.predicates)

        # Mutate the instance in place: move every Date row to year code
        # 0, which changes Qc1's ``year = 1993`` selection to either the
        # empty set or every fact row, then follow the documented rule.
        year_codes = ssb_small.dimensions["Date"].codes("year")
        saved = year_codes.copy()
        year_codes[:] = 0
        try:
            engine.invalidate()
            fresh_answer = executor.execute(query)
            fresh_mask = engine.selection_mask(query.predicates)
            reference = execute_by_materialised_join(ssb_small, query)
            assert fresh_answer == reference
            assert fresh_answer != stale_answer
            assert not np.array_equal(fresh_mask, stale_mask)
            # The cube-backed COUNT path must also see fresh content.
            assert engine.count_answer_via_cube(query) == reference
        finally:
            year_codes[:] = saved
            engine.invalidate()
        assert executor.execute(query) == stale_answer

    def test_invalidate_resets_stats_and_clears_namespace(self, ssb_small, any_backend):
        engine = ExecutionEngine(ssb_small, backend=any_backend)
        query = ssb_query("Qc2", ssb_schema())
        engine.selection_mask(query.predicates)
        engine.selection_mask(query.predicates)
        assert engine.stats().hits > 0
        before = engine.namespace
        engine.invalidate()
        stats = engine.stats()
        assert (stats.hits, stats.misses, stats.puts, stats.evictions) == (0, 0, 0, 0)
        assert engine.namespace == before  # content unchanged -> same namespace
        assert any_backend.entry_count(before) == 0


class TestConformanceEngineAnswers:
    def test_engine_answers_identical_across_backends(self, ssb_small, tmp_path):
        queries = [ssb_query(name, ssb_schema()) for name in ("Qc1", "Qs2", "Qg2")]
        answers = {}
        with CacheServerThread(max_entries=512) as handle:
            backends = {
                "local": LocalCacheBackend(64),
                "embedded": _make("embedded", 64, tmp_path),
                "remote": RemoteCacheBackend(
                    host="127.0.0.1", port=handle.server.port, max_entries=64
                ),
            }
            try:
                for label, backend in backends.items():
                    engine = ExecutionEngine(ssb_small, backend=backend)
                    executor = QueryExecutor(ssb_small, engine=engine)
                    answers[label] = [executor.execute(query) for query in queries]
                    # Run every query twice so the second pass is cache-served.
                    for query, first in zip(queries, answers[label]):
                        again = executor.execute(query)
                        if hasattr(first, "groups"):
                            assert again.groups == first.groups
                        else:
                            assert again == first
            finally:
                for backend in backends.values():
                    _close(backend)
        reference = answers["local"]
        for label in ("embedded", "remote"):
            for local_answer, other_answer in zip(reference, answers[label]):
                if hasattr(local_answer, "groups"):
                    assert local_answer.groups == other_answer.groups
                else:
                    assert local_answer == other_answer


# ----------------------------------------------------------------------
# statistics counters
# ----------------------------------------------------------------------
class TestCacheStats:
    def test_stats_addition_and_rates(self):
        total = CacheStats(hits=3, misses=1) + CacheStats(hits=1, misses=3, shared_hits=2)
        assert total.hits == 4 and total.misses == 4 and total.shared_hits == 2
        assert total.hit_rate == 0.5
        assert "hits=4" in total.summary()


# ----------------------------------------------------------------------
# local-backend specifics: the namespace LRU
# ----------------------------------------------------------------------
class TestLocalNamespaceLru:
    def test_namespace_count_is_bounded(self):
        backend = LocalCacheBackend(max_entries=4, max_namespaces=2)
        backend.put("ns-a", "cube", "k", 1.0)
        backend.put("ns-b", "cube", "k", 2.0)
        backend.put("ns-c", "cube", "k", 3.0)  # evicts ns-a (least recent)
        assert backend.get("ns-a", "cube", "k") is None
        assert backend.get("ns-b", "cube", "k") == 2.0
        assert backend.get("ns-c", "cube", "k") == 3.0
        assert backend.stats().evictions == 1

    def test_namespace_eviction_is_least_recently_used(self):
        backend = LocalCacheBackend(max_entries=4, max_namespaces=2)
        backend.put("ns-a", "cube", "k", 1.0)
        backend.put("ns-b", "cube", "k", 2.0)
        assert backend.get("ns-a", "cube", "k") == 1.0  # freshen ns-a
        backend.put("ns-c", "cube", "k", 3.0)  # now ns-b is the oldest
        assert backend.get("ns-b", "cube", "k") is None
        assert backend.get("ns-a", "cube", "k") == 1.0


class TestLocalBackendThreads:
    def test_engine_threads_can_share_one_backend(self):
        """A query server's engine threads share one backend: concurrent
        puts that evict and gets that freshen the namespace LRU must neither
        raise nor lose a counter update."""
        backend = LocalCacheBackend(max_entries=8)
        calls, errors = 20_000, []

        def hammer(offset):
            try:
                for index in range(calls):
                    key = (offset + index) % 32
                    backend.put("ns", "result", key, float(key), cost=1e-4 * (key % 5))
                    backend.get("ns", "result", key)
            except Exception as error:  # reported below, not swallowed
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(offset,)) for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = backend.stats()
        assert stats.puts == 4 * calls
        assert stats.hits + stats.misses == 4 * calls


# ----------------------------------------------------------------------
# fingerprints / namespaces
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_database_fingerprint_is_content_derived(self, ssb_small, tiny_db):
        first = database_fingerprint(ssb_small)
        assert first == database_fingerprint(ssb_small)  # deterministic
        assert first == ssb_small.cache_fingerprint()
        assert first != database_fingerprint(tiny_db)

    def test_content_digest_covers_domains(self):
        """Equal code arrays over different domains are different content:
        the domain decodes GROUP BY labels and predicate values, so sharing
        a namespace across domains would serve wrong decoded answers."""
        from repro.db.domains import AttributeDomain
        from repro.db.table import Column, Table

        codes = np.array([0, 1, 2])
        nineties = AttributeDomain.from_values("year", (1992, 1993, 1994))
        aughts = AttributeDomain.from_values("year", (2000, 2001, 2002))
        first = Table("T", [Column("year", codes.copy(), domain=nineties)])
        second = Table("T", [Column("year", codes.copy(), domain=aughts)])
        assert first.content_digest() != second.content_digest()

    def test_fingerprint_changes_when_content_changes(self, tiny_db):
        before = database_fingerprint(tiny_db)
        codes = tiny_db.fact.codes("ColorKey")
        original = int(codes[0])
        codes[0] = (original + 1) % 6
        try:
            # The fingerprint is memoized per instance; mutation is only
            # visible through refresh=True (what invalidate() passes).
            assert database_fingerprint(tiny_db) == before
            assert database_fingerprint(tiny_db, refresh=True) != before
        finally:
            codes[0] = original
        assert database_fingerprint(tiny_db, refresh=True) == before


# ----------------------------------------------------------------------
# the remote backend's cross-tier behaviour (its server lives in
# tests/test_cache_server.py)
# ----------------------------------------------------------------------
class TestRemoteBackend:
    def test_value_round_trip_preserves_bits(self):
        with CacheServerThread() as handle:
            backend = RemoteCacheBackend(host="127.0.0.1", port=handle.server.port)
            try:
                values = np.array([1.25, -3.5e300, 0.0, 7e-17])
                backend.put("ns", "cube", "k", values)
                backend._local.clear()  # force the remote path
                fetched = backend.get("ns", "cube", "k")
                np.testing.assert_array_equal(fetched, values)
                assert not fetched.flags.writeable  # frozen on promotion
                assert backend.stats().shared_hits == 1
            finally:
                backend.close()

    def test_unshared_region_stays_local(self):
        with CacheServerThread() as handle:
            backend = RemoteCacheBackend(host="127.0.0.1", port=handle.server.port)
            try:
                backend.put("ns", "predicate_mask", "k", np.ones(3, dtype=bool))
                backend._local.clear()
                assert backend.get("ns", "predicate_mask", "k") is None
                assert backend.stats().shared_puts == 0
            finally:
                backend.close()

    def test_release_keeps_server_tier(self):
        with CacheServerThread() as handle:
            backend = RemoteCacheBackend(host="127.0.0.1", port=handle.server.port)
            try:
                backend.put("ns", "cube", "k", 1.0)
                backend.release("ns")
                assert handle.server.store.entry_count("ns") == 1  # L2 intact
                assert backend.get("ns", "cube", "k") == 1.0  # re-served from L2
            finally:
                backend.close()

    def test_two_clients_share_through_the_server(self):
        """Two backends that never forked from each other — the batch-run /
        serving-process situation — exchange entries by content address."""
        with CacheServerThread() as handle:
            first = RemoteCacheBackend(host="127.0.0.1", port=handle.server.port)
            second = RemoteCacheBackend(host="127.0.0.1", port=handle.server.port)
            try:
                first.put("ns", "result", ("q", 0.5), 123.25)
                assert second.get("ns", "result", ("q", 0.5)) == 123.25
                assert second.stats().shared_hits == 1
            finally:
                first.close()
                second.close()


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
class TestEngineBackendIntegration:
    def test_direct_engines_have_private_local_backends(self, ssb_small):
        first = ExecutionEngine(ssb_small)
        second = ExecutionEngine(ssb_small)
        assert first.backend is not second.backend
        query = ssb_query("Qc1", ssb_schema())
        first.selection_mask(query.predicates)
        assert second.backend.entry_count(second.namespace) == 0

    def test_dead_database_namespace_is_released(self):
        """for_database engines reclaim their in-process cache storage when
        their database is garbage-collected, like the pre-backend per-engine
        caches did."""
        import gc

        from repro.datagen.ssb import SSBConfig, SSBGenerator

        backend = LocalCacheBackend(64)
        with backend_scope(backend):
            database = SSBGenerator(
                SSBConfig(scale_factor=0.05, rows_per_scale_factor=2000, seed=99)
            ).build()
            engine = ExecutionEngine.for_database(database)
            namespace = engine.namespace
            engine.fan_out("Customer")
            assert backend.entry_count(namespace) > 0
            del engine, database
            gc.collect()
            assert backend.entry_count(namespace) == 0

    def test_released_namespace_tracks_invalidation(self):
        """After invalidate() rebinds the namespace, database GC must release
        the *current* namespace, not the one captured at engine creation."""
        import gc

        from repro.datagen.ssb import SSBConfig, SSBGenerator

        backend = LocalCacheBackend(64)
        with backend_scope(backend):
            database = SSBGenerator(
                SSBConfig(scale_factor=0.05, rows_per_scale_factor=2000, seed=98)
            ).build()
            engine = ExecutionEngine.for_database(database)
            year_codes = database.dimensions["Date"].codes("year")
            year_codes[:] = 0  # mutate -> invalidate rebinds the namespace
            engine.invalidate()
            fresh_namespace = engine.namespace
            engine.fan_out("Customer")
            assert backend.entry_count(fresh_namespace) > 0
            del engine, database, year_codes
            gc.collect()
            assert backend.entry_count(fresh_namespace) == 0

    def test_shared_engine_follows_the_active_backend(self, ssb_small):
        engine = ExecutionEngine.for_database(ssb_small)
        replacement = LocalCacheBackend(16)
        with backend_scope(replacement):
            assert engine.backend is replacement
            engine.fan_out("Customer")
            assert replacement.entry_count(engine.namespace) > 0
        assert engine.backend is not replacement

    def test_repr_exposes_counters(self, ssb_small):
        engine = ExecutionEngine(ssb_small)
        engine.selection_mask(ssb_query("Qc1", ssb_schema()).predicates)
        text = repr(engine)
        assert "hits=" in text and "misses=" in text and "evictions=" in text
        assert "backend=local" in text


# ----------------------------------------------------------------------
# cost-aware eviction economics
# ----------------------------------------------------------------------
class _MinScanCache(UtilityCache):
    """Reference victim choice: scan every entry for the least
    ``(priority, seq)``, the order :class:`UtilityCache`'s heap must keep."""

    def _evict_over_budget(self) -> list:
        evicted = []
        while len(self._data) > self.max_entries or (
            self.max_bytes is not None and self._bytes > self.max_bytes and len(self._data) > 1
        ):
            victim, meta = min(self._meta.items(), key=lambda item: (item[1][0], item[1][1]))
            self._discard(victim)
            if self.policy != "lru":
                self._clock = max(self._clock, meta[0])
            evicted.append(victim)
        return evicted


class TestUtilityCache:
    """The GDSF store behind every bounded in-process region."""

    def test_expensive_entry_survives_eviction_pressure(self):
        cache = UtilityCache(max_entries=2)
        cache.put("costly", 1.0, cost=10.0)
        cache.put("cheap-a", 2.0, cost=1e-6)
        cache.put("cheap-b", 3.0, cost=1e-6)  # pressure: one entry must go
        assert cache.get("costly") == 1.0  # ... and it is not the costly one
        assert cache.get("cheap-a") is None

    def test_lru_policy_is_exact_lru(self):
        cache = UtilityCache(max_entries=2, policy="lru")
        cache.put("a", 1.0, cost=100.0)  # cost carries no weight under lru
        cache.put("b", 2.0)
        assert cache.get("a") == 1.0  # freshen a; b is now least recent
        cache.put("c", 3.0)
        assert cache.get("b") is None
        assert cache.get("a") == 1.0 and cache.get("c") == 3.0

    def test_byte_budget_enforced(self):
        cache = UtilityCache(max_entries=100, max_bytes=200)
        for index in range(10):
            cache.put(index, np.zeros(8))  # 64 bytes each
        assert cache.nbytes <= 200
        assert len(cache) == 3  # 3 x 64 = 192 fits, a fourth would not

    def test_oversized_value_never_admitted(self):
        cache = UtilityCache(max_entries=10, max_bytes=100)
        cache.put("small", np.zeros(8))
        evicted = cache.put("huge", np.zeros(1000))  # 8000 B > the whole budget
        assert evicted is None
        assert cache.get("huge") is None
        assert cache.get("small") is not None  # the resident entry kept its seat
        # Refused under a stored key: the stored value stays (the server's rule).
        assert cache.put("small", np.zeros(1000)) is None
        assert cache.get("small").nbytes == 64

    def test_tie_break_is_insertion_order(self):
        cache = UtilityCache(max_entries=3)
        for name in ("a", "b", "c"):
            cache.put(name, name, cost=0.5)  # identical priorities
        cache.put("d", "d", cost=0.5)
        assert cache.get("a") is None  # oldest insertion loses the tie
        assert cache.get("b") == "b" and cache.get("c") == "c"

    def test_frequency_raises_priority(self):
        cache = UtilityCache(max_entries=2)
        cache.put("hot", 1.0, cost=0.1)
        cache.put("cold", 2.0, cost=0.1)
        for _ in range(5):
            cache.get("hot")
        cache.put("new", 3.0, cost=0.1)
        assert cache.get("cold") is None
        assert cache.get("hot") == 1.0

    def test_eviction_is_pure_function_of_history(self):
        def survivors():
            cache = UtilityCache(max_entries=4, max_bytes=512)
            for index in range(16):
                cache.put(("k", index), np.full(4, float(index)), cost=1e-4 * (index % 5))
                if index % 3 == 0:
                    cache.get(("k", index - 1))
            return sorted(cache._data), cache.nbytes

        assert survivors() == survivors()

    def test_costless_entries_follow_frequency_aged_fifo(self):
        """Entries stored without a cost must evict in an order independent
        of their byte size (the neutral utility term)."""
        cache = UtilityCache(max_entries=2)
        cache.put("big-old", np.zeros(1000))
        cache.put("small-new", 1.0)
        cache.put("third", 2.0)
        assert cache.get("big-old") is None  # oldest goes, size irrelevant
        assert cache.get("small-new") == 1.0

    @pytest.mark.parametrize("policy", ["cost", "lru"])
    @pytest.mark.parametrize("max_bytes", [None, 150, 2000])
    def test_heap_picks_the_same_victims_as_a_full_scan(self, policy, max_bytes):
        """A seeded history of puts (oversize ones included), gets, clears
        and restore round trips evicts step for step what a scan of every
        entry for the least ``(priority, seq)`` evicts."""
        rng = random.Random(f"{policy}-{max_bytes}")

        def pair(entries=None, clock=0.0, max_entries=12):
            caches = (
                UtilityCache(max_entries, max_bytes, policy),
                _MinScanCache(max_entries, max_bytes, policy),
            )
            results = [cache.restore(entries or [], clock) for cache in caches]
            assert results[0] == results[1]
            return caches

        def saved(cache):
            entries = []
            for key, value in cache._data.items():
                cost, _nbytes, freq, seq, priority = cache.metadata(key)
                entries.append((key, value, cost, freq, seq, priority))
            return entries

        heap, scan = pair()
        for _ in range(2000):
            step = rng.random()
            key = rng.randrange(30)
            if step < 0.55:
                value = np.zeros(rng.choice([0, 1, 4, 8, 12, 30]))
                cost = rng.choice([None, 1e-6, 1e-4, 0.01, 1.0])
                assert heap.put(key, value, cost) == scan.put(key, value, cost)
            elif step < 0.95:
                assert (heap.get(key) is None) == (scan.get(key) is None)
            elif step < 0.96:
                heap.clear()
                scan.clear()
            else:
                heap, scan = pair(saved(heap), heap._clock, rng.choice([4, 12, 20]))
            assert list(heap._data) == list(scan._data)
            assert heap._clock == scan._clock and heap.nbytes == scan.nbytes
            assert len(heap._heap) <= 2 * (heap.max_entries + 1)

    def test_value_nbytes_estimates(self):
        assert value_nbytes(np.zeros(8)) == 64
        assert value_nbytes(b"12345") == 5
        assert value_nbytes((np.zeros(4), np.zeros(4))) > 64
        assert value_nbytes(1.5) > 0


class TestCostChannelConformance:
    def test_put_accepts_cost_and_roundtrips(self, any_backend):
        value = np.arange(6, dtype=np.float64)
        any_backend.put("ns", LOCAL_BOUNDED_REGION, "k", value, cost=0.25)
        got = any_backend.get("ns", LOCAL_BOUNDED_REGION, "k")
        np.testing.assert_array_equal(got, value)

    def test_cost_none_keeps_old_signature_working(self, any_backend):
        any_backend.put("ns", "result", ("q",), 1.5)
        assert any_backend.get("ns", "result", ("q",)) == 1.5


class TestCostAwareLocalBackend:
    def _flood(self, backend):
        backend.put("ns", LOCAL_BOUNDED_REGION, "gold", 1.0, cost=5.0)
        for index in range(10):
            backend.put("ns", LOCAL_BOUNDED_REGION, f"cheap{index}", float(index), cost=1e-6)

    def test_cost_policy_keeps_what_lru_forgets(self):
        costly = LocalCacheBackend(max_entries=4)
        self._flood(costly)
        assert costly.get("ns", LOCAL_BOUNDED_REGION, "gold") == 1.0
        recency = LocalCacheBackend(max_entries=4, policy="lru")
        self._flood(recency)
        assert recency.get("ns", LOCAL_BOUNDED_REGION, "gold") is None

    def test_byte_budget_bounds_every_store(self):
        backend = LocalCacheBackend(max_entries=100, max_bytes=256)
        for index in range(10):
            backend.put("ns", LOCAL_BOUNDED_REGION, index, np.zeros(8))
        assert 0 < backend.byte_count("ns") <= 256

    def test_region_byte_cap_holds_without_a_budget_and_below_one(self):
        """A region in REGION_MAX_BYTES is byte-bounded even when the backend
        has no byte budget, and never gets more than the backend's own."""
        cap = REGION_MAX_BYTES["release"]
        unbounded = LocalCacheBackend(max_entries=100)
        oversized = np.zeros(cap + 1, dtype=np.uint8)
        unbounded.put("ns", "release", "big", oversized)
        unbounded.put("ns", "release", "small", np.zeros(8))
        unbounded.put("ns", LOCAL_BOUNDED_REGION, "big", oversized)
        assert unbounded.get("ns", "release", "big") is None
        assert unbounded.get("ns", "release", "small") is not None
        assert unbounded.get("ns", LOCAL_BOUNDED_REGION, "big") is not None
        tighter = LocalCacheBackend(max_entries=100, max_bytes=256)
        for index in range(10):
            tighter.put("ns", "release", index, np.zeros(8))
        assert 0 < tighter.byte_count("ns") <= 256

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            LocalCacheBackend(max_entries=4, policy="random")
        with pytest.raises(ValueError):
            UtilityCache(max_entries=4, policy="random")

    def test_make_backend_threads_policy_and_budget(self, tmp_path):
        backend = make_backend("local", 8, policy="lru", max_bytes=1024)
        assert backend.policy == "lru" and backend.max_bytes == 1024
        embedded = make_backend(
            "remote", 8, path=str(tmp_path / "cache.db"), policy="lru", max_bytes=1024
        )
        try:
            assert embedded.policy == "lru"
            store = embedded._server_handle.server.store
            assert store.policy == "lru"
            assert store.max_bytes == 1024 * 16
        finally:
            embedded.close()


# ----------------------------------------------------------------------
# the parity acceptance criterion: eviction policy, byte budget and
# warming mode change *when* work happens, never what is computed
# ----------------------------------------------------------------------
class TestEvictionParity:
    QUERIES = ("Qc1", "Qs2")

    @pytest.fixture()
    def tiny_config(self):
        from repro.evaluation.experiments import ExperimentConfig

        return ExperimentConfig(
            epsilons=(0.1, 1.0),
            trials=2,
            scale_factor=1.0,
            rows_per_scale_factor=6000,
            seed=11,
        )

    def _rows(self, config):
        from repro.evaluation.experiments import table1
        from repro.evaluation.parallel import evaluation_session

        with evaluation_session(config):
            result = table1.run(config, query_names=self.QUERIES)
        return [{k: v for k, v in row.items() if k != "mean_time_s"} for row in result.rows]

    def test_policy_budget_and_warming_change_no_bytes(self, tiny_config, tmp_path):
        reference = self._rows(tiny_config)
        variants = [
            dataclasses.replace(tiny_config, cache_policy="lru"),
            dataclasses.replace(tiny_config, cache_max_bytes=4096, cache_size=8),
            dataclasses.replace(
                tiny_config, cache_policy="lru", cache_max_bytes=2048, cache_size=4
            ),
            dataclasses.replace(tiny_config, warm_ahead=True),
            dataclasses.replace(
                tiny_config,
                cache_backend="remote",
                cache_path=str(tmp_path / "cache.db"),
                cache_max_bytes=4096,
                jobs=2,
            ),
        ]
        for config in variants:
            assert self._rows(config) == reference, config

    def test_remote_parity_under_tiny_budget_with_warming(self, tiny_config):
        reference = self._rows(tiny_config)
        with CacheServerThread(max_entries=64, max_bytes=1 << 16) as handle:
            config = dataclasses.replace(
                tiny_config,
                cache_backend="remote",
                cache_url=f"127.0.0.1:{handle.server.port}",
                cache_size=8,
                cache_max_bytes=4096,
                warm_ahead=True,
            )
            assert self._rows(config) == reference
