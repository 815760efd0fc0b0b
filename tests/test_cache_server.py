"""Tests for the out-of-process cache server and its wire formats.

The contracts under test (see docs/CACHE.md):

* **key framing is injective** — distinct ``(namespace, region, key)``
  triples never serialize to the same bytes, and equal triples always do
  (property-based, since the engine's fingerprints are an open-ended space);
* **payload framing is bit-exact** — a round-trip preserves dtype, shape
  and bytes for every array kind the engine caches, and tuples/scalars
  survive structurally;
* **persistence is safe** — entries written through to the sqlite file come
  back warm after a restart; a corrupted or truncated file quarantines with
  a warning and the server starts empty rather than crashing;
* **failure injection** — a server killed mid-run degrades every client to
  local-only without changing a single result byte;
* a batch run warms the server for a *separately constructed* client — the
  batch-to-serving sharing the acceptance criteria require.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import random
import socket
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.db.cache import (
    EVICTION_POLICIES,
    LocalCacheBackend,
    REGIONS,
    RemoteCacheBackend,
    active_backend,
    make_backend,
    parse_cache_url,
)
from repro.db.cache.server import CacheServer, CacheServerThread, CacheStore
from repro.db.cache.wire import (
    MAX_FRAME_HEADER,
    decode_payload,
    encode_key,
    encode_payload,
    key_from_header,
    key_to_header,
    read_frame,
    write_frame,
)
from repro.db.engine import ExecutionEngine
from repro.db.executor import QueryExecutor
from repro.datagen.ssb import ssb_schema
from repro.evaluation.experiments import table1
from repro.evaluation.experiments.common import ExperimentConfig
from repro.evaluation.parallel import evaluation_session
from repro.workloads.ssb_queries import ssb_query


@pytest.fixture()
def server():
    with CacheServerThread(max_entries=256) as handle:
        yield handle


def _connect(handle) -> RemoteCacheBackend:
    return RemoteCacheBackend(
        host="127.0.0.1", port=handle.server.port, max_entries=32
    )


# ----------------------------------------------------------------------
# key framing: canonical and injective
# ----------------------------------------------------------------------
_KEY_ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=12),
)
_KEYS = st.recursive(
    _KEY_ATOMS,
    lambda children: st.lists(children, max_size=4).map(tuple),
    max_leaves=12,
)
_TRIPLES = st.tuples(st.text(max_size=8), st.sampled_from(sorted(REGIONS)), _KEYS)


class TestKeyFraming:
    @settings(max_examples=300)
    @given(first=_TRIPLES, second=_TRIPLES)
    def test_distinct_triples_never_collide(self, first, second):
        if encode_key(*first) == encode_key(*second):
            assert first == second

    @settings(max_examples=200)
    @given(triple=_TRIPLES)
    def test_encoding_is_canonical(self, triple):
        """Structurally equal keys encode identically — the property that
        lets two unrelated processes address each other's entries."""
        assert encode_key(*triple) == encode_key(*copy.deepcopy(triple))

    def test_engine_style_fingerprints_are_distinct(self):
        # The shapes the engine actually files: nested sorted tuples of
        # (table, attribute, kind, codes) with floats and ints mixed in.
        keys = [
            ("COUNT", None, (("Date", "year", "point", 5),), None),
            ("COUNT", None, (("Date", "year", "point", 6),), None),
            ("SUM", ("revenue", None), (("Date", "year", "point", 5),), None),
            ("COUNT", None, (("Date", "year", "range", 5, 6),), None),
            ("COUNT", None, (("Date", "year", "point", 5),), ("Customer.region",)),
        ]
        encoded = {encode_key("ns", "result", key) for key in keys}
        assert len(encoded) == len(keys)
        # ... and the same key under another namespace/region is another address.
        assert encode_key("other", "result", keys[0]) not in encoded
        assert encode_key("ns", "cube", keys[0]) not in encoded

    def test_header_transport_round_trips(self):
        blob = encode_key("ns", "cube", ("k", 1, 0.5))
        assert key_from_header(key_to_header(blob)) == blob


# ----------------------------------------------------------------------
# payload framing: bit-exact for everything the engine caches
# ----------------------------------------------------------------------
_ARRAY_DTYPES = (
    np.bool_,
    np.int8,
    np.int16,
    np.int32,
    np.int64,
    np.uint8,
    np.uint32,
    np.uint64,
    np.float16,
    np.float32,
    np.float64,
    np.complex128,
)


def _assert_array_identical(back: np.ndarray, original: np.ndarray) -> None:
    assert back.dtype == original.dtype
    assert back.shape == original.shape
    assert back.tobytes() == original.tobytes()  # bitwise, NaNs included


class TestPayloadFraming:
    @pytest.mark.parametrize("dtype", _ARRAY_DTYPES, ids=lambda d: np.dtype(d).name)
    def test_dtype_round_trip(self, dtype):
        rng = np.random.default_rng(7)
        array = (rng.random((3, 5)) * 100).astype(dtype)
        _assert_array_identical(decode_payload(encode_payload(array)), array)

    @pytest.mark.parametrize(
        "array",
        [
            np.empty((0,), dtype=np.float64),
            np.empty((0, 4), dtype=np.int64),
            np.float64(3.5) * np.ones(()),  # 0-d
            np.asfortranarray(np.arange(12).reshape(3, 4)),
            np.arange(24).reshape(2, 3, 4)[:, ::2, :],  # non-contiguous view
            np.array([np.nan, np.inf, -np.inf, -0.0]),
        ],
        ids=["empty", "empty-2d", "zero-d", "fortran", "strided", "specials"],
    )
    def test_shape_and_order_round_trip(self, array):
        _assert_array_identical(decode_payload(encode_payload(array)), array)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.lists(
            st.floats(width=64, allow_nan=True, allow_infinity=True), max_size=30
        )
    )
    def test_float_payloads_bitwise(self, data):
        array = np.asarray(data, dtype=np.float64)
        _assert_array_identical(decode_payload(encode_payload(array)), array)

    def test_tuple_payloads_recurse(self):
        value = (
            np.arange(5, dtype=np.int64),
            (np.ones(3, dtype=bool), 2.5),
            None,
            "label",
        )
        back = decode_payload(encode_payload(value))
        assert isinstance(back, tuple) and len(back) == 4
        _assert_array_identical(back[0], value[0])
        _assert_array_identical(back[1][0], value[1][0])
        assert back[1][1] == 2.5 and back[2] is None and back[3] == "label"

    def test_scalar_and_object_payloads_fall_back_to_pickle(self):
        from repro.db.executor import GroupedResult

        grouped = GroupedResult(
            keys=(("Customer", "region"),), groups={("ASIA",): 4.0, ("EUROPE",): 2.0}
        )
        back = decode_payload(encode_payload(grouped))
        assert back.groups == grouped.groups and back.keys == grouped.keys
        assert decode_payload(encode_payload(123.5)) == 123.5

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ValueError):
            decode_payload(encode_payload(1.0) + b"extra")
        with pytest.raises(ValueError):
            decode_payload(b"Zjunk")


# ----------------------------------------------------------------------
# frame I/O
# ----------------------------------------------------------------------
class TestFrames:
    def test_round_trip(self):
        buffer = io.BytesIO()
        sent = write_frame(buffer, {"op": "put", "key": "abc"}, b"\x00\x01payload")
        buffer.seek(0)
        header, payload, received = read_frame(buffer)
        assert header == {"op": "put", "key": "abc"}
        assert payload == b"\x00\x01payload"
        # Sender and receiver agree on the wire size, header included.
        assert sent == received == len(buffer.getvalue())

    def test_header_bound_enforced(self):
        buffer = io.BytesIO(struct.pack(">I", MAX_FRAME_HEADER + 1))
        with pytest.raises(ValueError):
            read_frame(buffer)

    def test_short_read_is_eof(self):
        buffer = io.BytesIO(struct.pack(">I", 10) + b"{}")
        with pytest.raises(EOFError):
            read_frame(buffer)


# ----------------------------------------------------------------------
# the store: LRU + persistence
# ----------------------------------------------------------------------
class TestCacheStore:
    def test_lru_eviction_deletes_from_disk_too(self, tmp_path):
        path = tmp_path / "cache.db"
        store = CacheStore(path=str(path), max_entries=2)
        for index in range(4):
            store.put("ns", "result", f"k{index}".encode(), b"v%d" % index)
        assert store.entry_count() == 2 and store.evictions == 2
        store.close()
        reloaded = CacheStore(path=str(path), max_entries=8)
        assert reloaded.entry_count() == 2  # evicted rows are gone on disk
        assert reloaded.get("ns", "result", b"k3") == b"v3"
        assert reloaded.get("ns", "result", b"k0") is None
        reloaded.close()

    def test_restart_honours_a_smaller_bound(self, tmp_path):
        path = tmp_path / "cache.db"
        store = CacheStore(path=str(path), max_entries=16)
        for index in range(8):
            store.put("ns", "result", b"k%d" % index, b"v")
        store.close()
        shrunk = CacheStore(path=str(path), max_entries=3)
        assert shrunk.entry_count() == 3
        shrunk.close()

    def test_namespace_clear_persists(self, tmp_path):
        path = tmp_path / "cache.db"
        store = CacheStore(path=str(path))
        store.put("ns-a", "result", b"k", b"va")
        store.put("ns-b", "result", b"k", b"vb")
        store.clear("ns-a")
        store.close()
        reloaded = CacheStore(path=str(path))
        assert reloaded.entry_count("ns-a") == 0
        assert reloaded.get("ns-b", "result", b"k") == b"vb"
        reloaded.close()

    def test_full_clear_resets_counters(self):
        store = CacheStore()
        store.put("ns", "result", b"k", b"v")
        store.get("ns", "result", b"k")
        store.get("ns", "result", b"missing")
        store.clear()
        stats = store.stats()
        assert (stats["hits"], stats["misses"], stats["puts"]) == (0, 0, 0)
        assert stats["entries"] == 0


class TestPersistenceRecovery:
    def test_corrupted_file_starts_empty_with_warning(self, tmp_path):
        path = tmp_path / "cache.db"
        path.write_bytes(b"this is definitely not a sqlite database")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            store = CacheStore(path=str(path))
        assert store.entry_count() == 0
        assert path.with_suffix(".db.corrupt").exists()  # quarantined, not lost
        # The fresh file is live: writes persist again.
        store.put("ns", "result", b"k", b"v")
        store.close()
        healthy = CacheStore(path=str(path))
        assert healthy.get("ns", "result", b"k") == b"v"
        healthy.close()

    def test_stale_wal_sidecars_do_not_block_recovery(self, tmp_path):
        """A crash can corrupt the main file and leave -wal/-shm sidecars;
        recovery must quarantine the body AND drop the sidecars, or the
        fresh database would trip over a mismatched WAL."""
        path = tmp_path / "cache.db"
        path.write_bytes(b"corrupt body")
        (tmp_path / "cache.db-wal").write_bytes(b"stale wal frames")
        (tmp_path / "cache.db-shm").write_bytes(b"stale shm index")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            store = CacheStore(path=str(path))
        assert store.entry_count() == 0
        assert not (tmp_path / "cache.db-wal").read_bytes() == b"stale wal frames"
        store.put("ns", "result", b"k", b"v")
        store.close()
        healthy = CacheStore(path=str(path))
        assert healthy.get("ns", "result", b"k") == b"v"
        healthy.close()

    def test_truncated_file_starts_empty_with_warning(self, tmp_path):
        path = tmp_path / "cache.db"
        store = CacheStore(path=str(path))
        for index in range(64):
            store.put("ns", "result", b"key-%d" % index, b"x" * 512)
        store.close()
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 3])  # tear the file mid-page
        with pytest.warns(RuntimeWarning, match="unreadable"):
            recovered = CacheStore(path=str(path))
        assert recovered.entry_count() == 0
        recovered.close()

    def test_unwritable_path_continues_memory_only(self, tmp_path):
        blocked = tmp_path / "not-a-dir"
        blocked.write_bytes(b"a file where a directory is needed")
        with pytest.warns(RuntimeWarning):
            store = CacheStore(path=str(blocked / "cache.db"))
        assert store.path is None  # memory-only from here on
        store.put("ns", "result", b"k", b"v")
        assert store.get("ns", "result", b"k") == b"v"
        assert store.stats()["persisted"] is False
        store.close()

    def test_persistence_path_parent_is_created(self, tmp_path):
        nested = tmp_path / "deep" / "nested" / "cache.db"
        store = CacheStore(path=str(nested))
        store.put("ns", "result", b"k", b"v")
        store.close()
        assert nested.exists()

    def test_client_survives_a_server_restart_on_the_same_port(self, tmp_path):
        """A pooled socket predating a server restart must retry on a fresh
        connection, not permanently degrade the backend — restarts are the
        whole point of the persistence file."""
        path = tmp_path / "cache.db"
        first = CacheServerThread(path=str(path)).start()
        port = first.server.port
        backend = RemoteCacheBackend(host="127.0.0.1", port=port)
        backend.put("ns", "cube", "k", np.arange(4))  # pools a connection
        first.stop()
        second = CacheServerThread(
            server=CacheServer(path=str(path), port=port)
        ).start()
        try:
            backend._local.clear()
            fetched = backend.get("ns", "cube", "k")  # stale socket → retry
            np.testing.assert_array_equal(fetched, np.arange(4))
            assert not backend.degraded
        finally:
            backend.close()
            second.stop()

    def test_server_restart_is_warm(self, tmp_path):
        path = tmp_path / "cache.db"
        with CacheServerThread(path=str(path)) as first:
            backend = _connect(first)
            backend.put("ns", "cube", ("q", 1), np.arange(10, dtype=np.int64))
            backend.close()
        with CacheServerThread(path=str(path)) as second:
            assert second.server.store.loaded_from_disk == 1
            fresh = _connect(second)
            fresh._local.clear()  # nothing in-process: the hit is from disk
            fetched = fresh.get("ns", "cube", ("q", 1))
            np.testing.assert_array_equal(fetched, np.arange(10))
            fresh.close()


# ----------------------------------------------------------------------
# server protocol edges
# ----------------------------------------------------------------------
class TestServerProtocol:
    def test_ping_reports_identity(self, server):
        backend = _connect(server)
        response, _ = backend._request({"op": "ping"})
        assert response["server"] == "repro-cache-server"
        assert response["persisted"] is False
        backend.close()

    def test_unknown_op_is_structured(self, server):
        backend = _connect(server)
        with pytest.raises(RuntimeError, match="unknown op"):
            backend._request({"op": "frobnicate"})
        # The connection survives a refused op.
        response, _ = backend._request({"op": "ping"})
        assert response["ok"]
        backend.close()

    def test_malformed_frame_answered_then_dropped(self, server):
        with socket.create_connection(("127.0.0.1", server.server.port), timeout=5) as sock:
            stream = sock.makefile("rwb")
            stream.write(struct.pack(">I", MAX_FRAME_HEADER + 5))  # absurd length
            stream.flush()
            header, _, _ = read_frame(stream)
            assert header["ok"] is False and "bad frame" in header["error"]
            assert stream.read(1) == b""  # server dropped the connection

    def test_garbage_put_headers_are_refused(self, server):
        backend = _connect(server)
        with pytest.raises(RuntimeError, match="namespace/region/key"):
            backend._request({"op": "put"}, b"payload")
        backend.close()

    def test_shutdown_op_stops_the_server(self):
        handle = CacheServerThread().start()
        backend = _connect(handle)
        response, _ = backend._request({"op": "shutdown"})
        assert response["stopping"]
        handle._thread.join(timeout=10)
        assert not handle._thread.is_alive()
        backend.close()

    def test_server_side_stats_accumulate_across_clients(self, server):
        first = _connect(server)
        second = _connect(server)
        first.put("ns", "cube", "k", 1.0)
        second.get("ns", "cube", "k")
        stats = second.server_stats()
        assert stats["puts"] == 1 and stats["hits"] == 1
        assert stats["bytes_received"] > 0 and stats["bytes_sent"] > 0
        first.close()
        second.close()

    def test_old_protocol_ops_still_answered(self, server):
        """A put without a cost field (the protocol-v1 form) is still valid."""
        backend = _connect(server)
        response, _ = backend._request({"op": "ping"})
        assert response["protocol"] >= 2
        encoded_key = encode_key("ns", "cube", "k")
        header = {
            "op": "put",
            "namespace": "ns",
            "region": "cube",
            "key": key_to_header(encoded_key),
        }
        response, _ = backend._request(header, encode_payload(1.5))
        assert response["stored"] is True
        assert server.server.store.entry_count("ns") == 1
        backend.close()


class TestCacheUrl:
    def test_parse_variants(self):
        assert parse_cache_url("127.0.0.1:8643") == ("127.0.0.1", 8643)
        assert parse_cache_url("tcp://cache-host:9000") == ("cache-host", 9000)

    @pytest.mark.parametrize("bad", ["", "no-port", ":8643", "host:not-a-port", "host:0"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_cache_url(bad)

    def test_make_backend_accepts_url(self, server):
        backend = make_backend("remote", 32, url=f"127.0.0.1:{server.server.port}")
        try:
            backend.put("ns", "result", "k", 5.0)
            assert server.server.store.entry_count("ns") == 1
        finally:
            backend.close()


# ----------------------------------------------------------------------
# failure injection: the server dies, the run does not
# ----------------------------------------------------------------------
def _table1_rows(config, **kwargs):
    """Table 1 rows with the wall-clock column dropped (not reproducible)."""
    with evaluation_session(config):
        result = table1.run(config, **kwargs)
    return [{k: v for k, v in row.items() if k != "mean_time_s"} for row in result.rows]


class TestFailureInjection:
    QUERIES = ("Qc1", "Qs2")

    @pytest.fixture()
    def tiny_config(self):
        return ExperimentConfig(
            epsilons=(0.1, 1.0),
            trials=2,
            scale_factor=1.0,
            rows_per_scale_factor=6000,
            seed=11,
        )

    def test_engine_keeps_answering_after_server_death(self, ssb_small):
        handle = CacheServerThread().start()
        backend = RemoteCacheBackend(host="127.0.0.1", port=handle.server.port)
        engine = ExecutionEngine(ssb_small, backend=backend)
        executor = QueryExecutor(ssb_small, engine=engine)
        query = ssb_query("Qc1", ssb_schema())
        before = executor.execute(query)
        handle.stop()  # the server is gone mid-"run"
        engine.backend._local.clear()  # even with a cold L1 ...
        after = executor.execute(query)  # ... recompute, don't crash
        assert after == before
        assert backend._broken
        backend.close()

    def test_run_degrades_to_local_without_corrupting_results(self, tiny_config):
        reference = _table1_rows(
            dataclasses.replace(tiny_config, cache_backend="local"),
            query_names=self.QUERIES,
        )
        handle = CacheServerThread().start()
        config = dataclasses.replace(
            tiny_config,
            cache_backend="remote",
            cache_url=f"127.0.0.1:{handle.server.port}",
        )
        with evaluation_session(config):
            first = table1.run(config, query_names=self.QUERIES[:1])
            assert active_backend().stats().shared_puts > 0  # server was live
            handle.stop()  # killed mid-session
            survivor = table1.run(config, query_names=self.QUERIES)
            assert active_backend()._broken
        rows = [
            {k: v for k, v in row.items() if k != "mean_time_s"}
            for row in survivor.rows
        ]
        assert rows == reference
        assert first.rows  # the pre-kill run produced output too

    def test_corrupt_server_payload_degrades_instead_of_raising(self, server):
        """A truncated/garbage value blob on the server must cost a
        recomputation (degrade + miss), never crash the run."""
        backend = _connect(server)
        backend.put("ns", "cube", "k", np.arange(4, dtype=np.float64))
        address = next(iter(server.server.store._data))
        server.server.store._data[address] = b"A\x00\x00\x00\xffgarbage"  # torn blob
        backend._local.clear()
        assert backend.get("ns", "cube", "k") is None  # no exception escapes
        assert backend._broken
        backend.close()

    def test_unpicklable_value_stays_local_only(self, server):
        """A value that cannot cross the wire is a value problem, not a
        server problem: it stays in L1 and the backend keeps sharing."""
        backend = _connect(server)
        backend.put("ns", "result", "k", lambda: None)  # unpicklable
        assert not backend._broken
        assert server.server.store.entry_count("ns") == 0  # never sent
        assert callable(backend.get("ns", "result", "k"))  # L1 serves it
        backend.put("ns", "result", "j", 2.0)  # sharing still works
        assert server.server.store.entry_count("ns") == 1
        backend.close()

    def test_puts_and_clears_never_raise_when_degraded(self):
        handle = CacheServerThread().start()
        backend = RemoteCacheBackend(host="127.0.0.1", port=handle.server.port)
        handle.stop()
        backend.put("ns", "cube", "k", 1.0)
        assert backend._broken
        backend.put("ns", "cube", "j", 2.0)
        backend.clear("ns")
        backend.clear()
        assert backend.entry_count() == 0
        assert backend.server_stats() is None
        backend.close()


# ----------------------------------------------------------------------
# batch-run warming for an unrelated client (the acceptance criterion)
# ----------------------------------------------------------------------
class TestBatchWarmsUnrelatedClients:
    def test_fresh_client_scores_remote_hits_after_a_batch_run(self, server):
        config = ExperimentConfig(
            epsilons=(0.1, 1.0),
            trials=2,
            rows_per_scale_factor=6000,
            seed=11,
            cache_backend="remote",
            cache_url=f"127.0.0.1:{server.server.port}",
        )
        rows_warm = _table1_rows(config, query_names=("Qc1", "Qs2"))
        assert server.server.store.entry_count() > 0  # the batch run warmed it

        # A brand-new client — separate backend, never forked from the batch
        # run — replays the same workload and is served by the batch's work.
        hits_before = server.server.store.hits
        rows_fresh = _table1_rows(dataclasses.replace(config), query_names=("Qc1", "Qs2"))
        assert server.server.store.hits > hits_before  # nonzero remote hits
        assert rows_fresh == rows_warm  # ... and warm hits change no bytes


# ----------------------------------------------------------------------
# cost-aware store economics: byte budget, policy, restart parity
# ----------------------------------------------------------------------
class TestCostAwareStore:
    def test_byte_budget_bounds_the_store(self):
        store = CacheStore(max_entries=1000, max_bytes=1000)
        for index in range(10):
            store.put("ns", "result", b"k%d" % index, b"x" * 300)
        assert store.stats()["bytes_stored"] <= 1000
        assert store.entry_count() == 3

    def test_oversized_payload_rejected_not_stored(self):
        store = CacheStore(max_entries=10, max_bytes=100)
        assert store.put("ns", "result", b"small", b"x" * 10) is True
        assert store.put("ns", "result", b"huge", b"x" * 500) is False
        assert store.get("ns", "result", b"huge") is None
        assert store.get("ns", "result", b"small") == b"x" * 10
        assert store.rejected_puts == 1
        assert store.stats()["rejected_puts"] == 1

    def test_cost_weighted_eviction_keeps_expensive_entries(self):
        store = CacheStore(max_entries=2)
        store.put("ns", "result", b"gold", b"g", cost=10.0)
        store.put("ns", "result", b"cheap-a", b"a", cost=1e-6)
        store.put("ns", "result", b"cheap-b", b"b", cost=1e-6)
        assert store.get("ns", "result", b"gold") == b"g"
        assert store.get("ns", "result", b"cheap-a") is None

    def test_lru_policy_ignores_cost(self):
        store = CacheStore(max_entries=2, policy="lru")
        store.put("ns", "result", b"gold", b"g", cost=10.0)
        store.put("ns", "result", b"b", b"b")
        store.put("ns", "result", b"c", b"c")  # evicts the oldest despite cost
        assert store.get("ns", "result", b"gold") is None
        assert store.stats()["policy"] == "lru"

    def test_deterministic_tie_break_on_sequence(self):
        store = CacheStore(max_entries=3)
        for name in (b"a", b"b", b"c", b"d"):  # equal costs -> equal priority
            store.put("ns", "result", name, b"v", cost=0.5)
        assert store.get("ns", "result", b"a") is None  # oldest loses the tie
        assert store.get("ns", "result", b"b") == b"v"

    @staticmethod
    def _traffic(store):
        """A fixed put/get history with evictions under both phases."""
        for index in range(6):
            store.put("ns", "result", b"k%d" % index, b"x" * (10 + index), cost=0.01 * index)
        store.get("ns", "result", b"k2")
        store.get("ns", "result", b"k2")
        store.get("ns", "result", b"k5")

    @staticmethod
    def _more_traffic(store):
        for index in range(6, 12):
            store.put("ns", "result", b"k%d" % index, b"x" * 10, cost=0.001)

    def test_restart_eviction_parity(self, tmp_path):
        """A restarted server evicts in exactly the order the old one would
        have: same subsequent traffic, same survivors (the warm-restart
        recency-loss fix)."""
        continuous = CacheStore(max_entries=4)
        self._traffic(continuous)
        self._more_traffic(continuous)
        expected = sorted(continuous._data)

        path = tmp_path / "cache.db"
        restarted = CacheStore(path=str(path), max_entries=4)
        self._traffic(restarted)
        restarted.close()  # flushes per-get freshened metadata + clock
        reloaded = CacheStore(path=str(path), max_entries=4)
        self._more_traffic(reloaded)
        assert sorted(reloaded._data) == expected
        reloaded.close()

    def test_restart_restores_cost_metadata(self, tmp_path):
        path = tmp_path / "cache.db"
        store = CacheStore(path=str(path), max_entries=8)
        store.put("ns", "result", b"k", b"v", cost=2.5)
        store.close()
        reloaded = CacheStore(path=str(path), max_entries=8)
        assert reloaded.entry_cost("ns", "result", b"k") == 2.5
        assert reloaded.nbytes == 1
        reloaded.close()

    def test_v1_file_is_quarantined_and_server_starts_empty(self, tmp_path):
        """A persistence file written by a protocol-v1 server (four columns,
        no access metadata) takes the corrupt-file path: moved aside with a
        warning, and the store starts empty on a fresh, writable file."""
        import sqlite3

        path = tmp_path / "cache.db"
        conn = sqlite3.connect(path)
        conn.execute(
            "CREATE TABLE cache_entries ("
            " namespace TEXT NOT NULL, region TEXT NOT NULL,"
            " key BLOB NOT NULL, value BLOB NOT NULL,"
            " PRIMARY KEY (namespace, region, key))"
        )
        conn.execute(
            "INSERT INTO cache_entries VALUES (?, ?, ?, ?)", ("ns", "result", b"k", b"v")
        )
        conn.commit()
        conn.close()
        with pytest.warns(RuntimeWarning, match="unreadable"):
            store = CacheStore(path=str(path), max_entries=8)
        assert store.loaded_from_disk == 0 and store.entry_count() == 0
        assert path.with_suffix(".db.corrupt").exists()
        store.put("ns", "result", b"j", b"w", cost=1.0)
        store.close()
        reloaded = CacheStore(path=str(path), max_entries=8)
        assert reloaded.get("ns", "result", b"j") == b"w"
        reloaded.close()

    @pytest.mark.parametrize("policy", EVICTION_POLICIES)
    @pytest.mark.parametrize("max_bytes", [None, 150])
    def test_l1_and_server_evict_the_same_entries(self, policy, max_bytes):
        """One seeded put/get/cost history through a bounded L1 region and
        through the server's store leaves the same survivors after every
        step — including oversize puts to keys that are already stored."""
        rng = random.Random(1)
        local = LocalCacheBackend(max_entries=6, policy=policy, max_bytes=max_bytes)
        store = CacheStore(max_entries=6, max_bytes=max_bytes, policy=policy)
        for step in range(400):
            key = b"k%d" % rng.randrange(12)
            if rng.random() < 0.6:
                value = b"x" * rng.choice((8, 30, 60, 200))  # 200 > the 150 B budget
                cost = rng.choice((None, 1e-4, 1e-3, 2e-2))
                local.put("ns", "result", key, value, cost)
                store.put("ns", "result", key, value, cost)
            else:
                assert local.get("ns", "result", key) == store.get("ns", "result", key)
            survivors = sorted(local._store("ns", "result")._data)
            assert survivors == sorted(address[2] for address in store._data), step


class TestByteBudgetServer:
    def test_stats_report_bytes_and_policy(self):
        with CacheServerThread(max_entries=64, max_bytes=1 << 20) as handle:
            backend = _connect(handle)
            backend.put("ns", "cube", "k", np.arange(32, dtype=np.float64))
            stats = backend.server_stats()
            assert stats["bytes_stored"] > 0
            assert stats["max_bytes"] == 1 << 20
            assert stats["policy"] == "cost"
            backend.close()

    def test_cli_parser_accepts_budget_and_policy(self):
        from repro.db.cache.server import _build_parser

        args = _build_parser().parse_args(
            ["--max-bytes", "1048576", "--policy", "lru", "--port", "0"]
        )
        assert args.max_bytes == 1048576 and args.policy == "lru"

    def test_rejected_put_reported_to_client(self):
        with CacheServerThread(max_entries=64, max_bytes=64) as handle:
            backend = _connect(handle)
            backend.put("ns", "cube", "k", np.zeros(1000))  # payload >> budget
            assert handle.server.store.entry_count() == 0
            assert handle.server.store.rejected_puts == 1
            # The value still serves from L1 — a refusal is not a failure.
            assert backend.get("ns", "cube", "k") is not None
            backend.close()


# ----------------------------------------------------------------------
# the cost channel and fingerprint short-circuit on the wire
# ----------------------------------------------------------------------
class TestCostOnTheWire:
    def test_put_cost_round_trips_to_store(self, server):
        backend = _connect(server)
        backend.put("ns", "cube", "k", np.arange(4), cost=0.125)
        stored_key = encode_key("ns", "cube", "k")
        assert server.server.store.entry_cost("ns", "cube", stored_key) == 0.125
        backend.close()

    def test_hit_promotes_cost_to_l1(self, server):
        first = _connect(server)
        first.put("ns", "result", "k", np.arange(4), cost=0.5)
        second = _connect(server)
        assert second.get("ns", "result", "k") is not None
        # The promoted L1 entry carries the server's cost metadata, so it
        # competes on cost/bytes, not the neutral cost-less utility.
        assert second._local._store("ns", "result").cost("k") == 0.5
        first.close()
        second.close()


class TestFingerprintShortCircuit:
    def test_identical_reput_skips_the_round_trip(self, server):
        backend = _connect(server)
        value = np.arange(64, dtype=np.float64)
        backend.put("ns", "cube", "k", value)
        puts_before = server.server.store.puts
        backend.put("ns", "cube", "k", value)  # byte-identical payload
        assert server.server.store.puts == puts_before  # no wire write
        stats = backend.breaker_stats()
        assert stats["put_short_circuits"] == 1
        assert stats["put_bytes_saved"] > 0
        backend.close()

    def test_changed_payload_is_written(self, server):
        backend = _connect(server)
        backend.put("ns", "cube", "k", np.arange(4))
        backend.put("ns", "cube", "k", np.arange(5))  # different bytes
        assert server.server.store.puts == 2
        assert backend.breaker_stats()["put_short_circuits"] == 0
        backend.close()

    def test_server_miss_drops_the_fingerprint(self, server):
        """An evicted entry must be re-storable: the digest map may never
        short-circuit a put the server actually needs."""
        backend = _connect(server)
        value = np.arange(8)
        backend.put("ns", "cube", "k", value)
        server.server.store.clear()  # the server lost everything (eviction)
        backend._local.clear()
        assert backend.get("ns", "cube", "k") is None  # miss drops the digest
        backend.put("ns", "cube", "k", value)
        assert server.server.store.entry_count() == 1  # written again
        backend.close()

    def test_get_learns_the_fingerprint(self, server):
        first = _connect(server)
        value = np.arange(16, dtype=np.int64)
        first.put("ns", "cube", "k", value)
        second = _connect(server)
        np.testing.assert_array_equal(second.get("ns", "cube", "k"), value)
        puts_before = server.server.store.puts
        second.put("ns", "cube", "k", value)  # learned from the get
        assert server.server.store.puts == puts_before
        assert second.breaker_stats()["put_short_circuits"] == 1
        first.close()
        second.close()
