"""Fault-tolerance tests: chaos proxy, circuit breaker, durable ledger,
overload shedding and graceful drain.

The contracts under test (see docs/SERVING.md and docs/CACHE.md):

* the chaos proxy injects exactly the faults its spec names, deterministically
  per seed, and can be re-specced against live connections;
* the remote cache client's circuit breaker converts server failures into
  local-only degradation and probes its way back once the server heals —
  results stay byte-identical through arbitrary network chaos;
* the durable budget ledger journals every charge before the engine runs, so
  a SIGKILL at any point recovers to "charged" (never under-charged) and a
  restart replays spend, refunds reconciled;
* an overloaded server refuses with a structured ``overloaded`` error (queue
  depth + retry hint) that costs the analyst no budget;
* shutdown drains: a request whose line was read gets its response before the
  transport closes, and both embeddable server threads raise loudly instead
  of leaking a hung event loop.
"""

import json
import multiprocessing
import os
import signal
import socket
import sqlite3
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.db.cache import (
    LocalCacheBackend,
    RemoteCacheBackend,
    ShardedCacheBackend,
    backend_scope,
)
from repro.db.cache.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.db.cache.server import CacheServerThread
from repro.db.cache.wire import MAX_FRAME_HEADER, MAX_FRAME_PAYLOAD, read_frame
from repro.dp.accountant import PrivacyBudget
from repro.serving import (
    BudgetLedger,
    LedgerJournal,
    QueryPlanner,
    QueryServer,
    ServerThread,
    ServingClient,
    ServingError,
)
from repro.serving.server import COLD_START_EXECUTION_ESTIMATE_S
from repro.testing import ChaosProxy, FaultSpec

SEED = 909090

DEMO_SPEC = {
    "name": "demo",
    "kind": "ssb",
    "scale_factor": 1.0,
    "rows_per_scale_factor": 2000,
    "seed": 5,
}


@pytest.fixture(scope="module")
def planner():
    planner = QueryPlanner(seed=SEED)
    spec = dict(DEMO_SPEC)
    planner.register(spec.pop("name"), spec.pop("kind"), **spec)
    return planner


def _subprocess_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _wait_for(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {message}")


# ----------------------------------------------------------------------
# the chaos proxy
# ----------------------------------------------------------------------
@pytest.fixture()
def echo_server():
    """A plain TCP echo server — the simplest upstream to proxy faults onto."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(16)
    port = listener.getsockname()[1]
    stopping = threading.Event()

    def pump(conn):
        try:
            while True:
                data = conn.recv(65536)
                if not data:
                    break
                conn.sendall(data)
        except OSError:
            pass
        finally:
            conn.close()

    def serve():
        while not stopping.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                return
            threading.Thread(target=pump, args=(conn,), daemon=True).start()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield "127.0.0.1", port
    stopping.set()
    listener.close()
    thread.join(timeout=5)


def _proxied_connection(proxy, timeout=5.0):
    sock = socket.create_connection(("127.0.0.1", proxy.port), timeout=timeout)
    sock.settimeout(timeout)
    return sock


def _read_until_eof(sock):
    received = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return received
        received += chunk


class TestFaultSpec:
    def test_default_spec_is_transparent(self):
        assert FaultSpec().transparent is True
        assert FaultSpec(drop_rate=0.1).transparent is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop_rate": 1.5},
            {"corrupt_rate": -0.1},
            {"truncate_rate": 2.0},
            {"kill_rate": -1.0},
            {"delay_rate": 1.01},
            {"delay_s": -0.5},
        ],
    )
    def test_out_of_range_fields_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)

    def test_set_faults_rejects_unknown_field(self, echo_server):
        with ChaosProxy(*echo_server) as proxy:
            with pytest.raises(TypeError, match="corupt_rate"):
                proxy.set_faults(corupt_rate=1.0)  # a typo must not run clean


class TestChaosProxy:
    def test_transparent_round_trip(self, echo_server):
        with ChaosProxy(*echo_server) as proxy:
            with _proxied_connection(proxy) as sock:
                sock.sendall(b"hello chaos")
                assert sock.recv(1024) == b"hello chaos"
            # The pumps increment counters after forwarding, so the echo can
            # arrive a beat before the second increment lands.
            _wait_for(
                lambda: proxy.stats()["chunks_forwarded"] >= 2,
                message="both directions to be counted",
            )
            stats = proxy.stats()
        assert stats["connections_accepted"] == 1
        assert stats["chunks_dropped"] == 0
        assert stats["chunks_corrupted"] == 0

    def test_drop_loses_chunks_but_keeps_the_connection(self, echo_server):
        with ChaosProxy(*echo_server, spec=FaultSpec(drop_rate=1.0)) as proxy:
            with _proxied_connection(proxy, timeout=0.3) as sock:
                sock.sendall(b"lost")
                with pytest.raises(socket.timeout):
                    sock.recv(1024)
                sock.sendall(b"also lost")  # the link itself is still up
            assert proxy.stats()["chunks_dropped"] >= 1
            assert proxy.stats()["chunks_forwarded"] == 0

    def test_corrupt_flips_bytes_preserving_length(self, echo_server):
        sent = bytes(range(256)) * 4
        with ChaosProxy(*echo_server, spec=FaultSpec(corrupt_rate=1.0)) as proxy:
            with _proxied_connection(proxy) as sock:
                sock.sendall(sent)
                received = b""
                while len(received) < len(sent):
                    received += sock.recv(65536)
        assert len(received) == len(sent)
        assert received != sent
        assert proxy.stats()["chunks_corrupted"] >= 1

    def test_corruption_is_deterministic_per_seed(self, echo_server):
        sent = b"determinism" * 100

        def round_trip(seed):
            spec = FaultSpec(corrupt_rate=1.0)
            with ChaosProxy(*echo_server, spec=spec, seed=seed) as proxy:
                with _proxied_connection(proxy) as sock:
                    sock.sendall(sent)
                    received = b""
                    while len(received) < len(sent):
                        received += sock.recv(65536)
            return received

        assert round_trip(7) == round_trip(7)

    def test_truncate_forwards_a_prefix_then_kills(self, echo_server):
        sent = b"x" * 4096
        with ChaosProxy(*echo_server, spec=FaultSpec(truncate_rate=1.0)) as proxy:
            with _proxied_connection(proxy) as sock:
                sock.sendall(sent)
                # The kill may race the echo: the client sees a strict
                # prefix of what it sent (possibly empty), never garbage.
                received = _read_until_eof(sock)
        assert len(received) < len(sent)
        assert received == sent[: len(received)]
        assert proxy.stats()["chunks_truncated"] >= 1

    def test_kill_rate_closes_the_connection(self, echo_server):
        with ChaosProxy(*echo_server, spec=FaultSpec(kill_rate=1.0)) as proxy:
            with _proxied_connection(proxy) as sock:
                sock.sendall(b"doomed")
                assert _read_until_eof(sock) == b""
            assert proxy.stats()["connections_killed"] >= 1

    def test_freeze_holds_traffic_until_thawed(self, echo_server):
        with ChaosProxy(*echo_server) as proxy:
            with _proxied_connection(proxy, timeout=0.3) as sock:
                proxy.freeze()
                sock.sendall(b"stuck")
                with pytest.raises(socket.timeout):
                    sock.recv(1024)
                proxy.thaw()
                sock.settimeout(5.0)
                assert sock.recv(1024) == b"stuck"

    def test_kill_connections_cuts_live_links(self, echo_server):
        with ChaosProxy(*echo_server) as proxy:
            with _proxied_connection(proxy) as sock:
                sock.sendall(b"warm")
                assert sock.recv(1024) == b"warm"
                assert proxy.kill_connections() == 1
                assert _read_until_eof(sock) == b""

    def test_unreachable_upstream_counts_a_refusal(self):
        # A freshly bound-then-closed port is as good as guaranteed closed.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with ChaosProxy("127.0.0.1", dead_port) as proxy:
            with _proxied_connection(proxy) as sock:
                assert _read_until_eof(sock) == b""
            _wait_for(
                lambda: proxy.stats()["connections_refused"] == 1,
                message="the refusal counter",
            )


# ----------------------------------------------------------------------
# the circuit breaker (unit, stepped clock)
# ----------------------------------------------------------------------
class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def make(self, threshold=3, reset=2.0):
        clock = _Clock()
        return CircuitBreaker(threshold, reset, clock=clock), clock

    def test_ctor_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout=-1.0)

    def test_stays_closed_below_the_threshold(self):
        breaker, _ = self.make()
        breaker.record_failure(OSError("x"))
        breaker.record_failure(OSError("x"))
        assert breaker.state == CLOSED
        assert breaker.allow() is True

    def test_success_resets_the_consecutive_count(self):
        breaker, _ = self.make()
        for _ in range(5):  # never three in a row
            breaker.record_failure(OSError("x"))
            breaker.record_failure(OSError("x"))
            breaker.record_success()
        assert breaker.state == CLOSED

    def test_threshold_failures_open_the_circuit(self):
        breaker, _ = self.make()
        for _ in range(3):
            breaker.record_failure(OSError("boom"))
        assert breaker.state == OPEN
        assert breaker.allow() is False
        assert breaker.stats()["rejections"] == 1
        assert "boom" in breaker.stats()["last_error"]

    def test_half_open_grants_exactly_one_probe(self):
        breaker, clock = self.make(reset=2.0)
        for _ in range(3):
            breaker.record_failure(OSError("x"))
        clock.now = 2.5
        assert breaker.state == HALF_OPEN
        assert breaker.allow() is True  # the probe slot
        assert breaker.allow() is False  # probe in flight: everyone else waits

    def test_probe_success_closes_and_counts_a_recovery(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure(OSError("x"))
        clock.now = 2.5
        assert breaker.allow() is True
        breaker.record_success()
        assert breaker.state == CLOSED
        stats = breaker.stats()
        assert stats["trips"] == 1
        assert stats["recoveries"] == 1

    def test_probe_failure_reopens_and_restarts_the_timeout(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure(OSError("x"))
        clock.now = 2.5
        assert breaker.allow() is True
        breaker.record_failure(OSError("still down"))
        assert breaker.state == OPEN
        clock.now = 4.0  # 1.5s after the reopen: still open
        assert breaker.allow() is False
        clock.now = 4.6
        assert breaker.allow() is True

    def test_trip_opens_immediately(self):
        breaker, _ = self.make()
        breaker.trip(ValueError("corrupt payload"))
        assert breaker.state == OPEN
        assert breaker.stats()["trips"] == 1

    def test_trip_while_open_restarts_the_timeout(self):
        breaker, clock = self.make()
        breaker.trip(ValueError("x"))
        clock.now = 1.9
        breaker.trip(ValueError("y"))
        clock.now = 2.5  # only 0.6s since the second trip
        assert breaker.allow() is False
        clock.now = 4.0
        assert breaker.allow() is True

    def test_reset_force_closes(self):
        breaker, _ = self.make()
        breaker.trip(ValueError("x"))
        breaker.reset()
        assert breaker.state == CLOSED
        assert breaker.allow() is True


# ----------------------------------------------------------------------
# the remote cache client under chaos
# ----------------------------------------------------------------------
def _resilient_backend(port, **overrides):
    settings = dict(
        host="127.0.0.1",
        port=port,
        max_entries=64,
        op_timeout=0.5,
        retry_attempts=2,
        backoff_base=0.01,
        backoff_max=0.02,
        breaker_threshold=2,
        breaker_reset_timeout=0.2,
    )
    settings.update(overrides)
    return RemoteCacheBackend(**settings)


class TestRemoteBackendUnderChaos:
    def test_breaker_trips_to_local_only_and_probes_back(self):
        with CacheServerThread(max_entries=256) as handle:
            with ChaosProxy("127.0.0.1", handle.server.port) as proxy:
                backend = _resilient_backend(proxy.port)
                try:
                    backend.put("ns", "result", ("k",), 1.5)
                    assert backend.degraded is False
                    # The network turns to garbage: every chunk corrupted.
                    proxy.set_faults(corrupt_rate=1.0)
                    backend.release("ns")  # force the next get to go remote
                    assert backend.get("ns", "result", ("k",)) is None
                    assert backend.degraded is True
                    assert backend.breaker_stats()["trips"] >= 1
                    # While open, gets are local-only misses, not hangs.
                    assert backend.get("ns", "result", ("k",)) is None
                    # The network heals; the breaker probes and recovers.
                    proxy.set_faults()
                    time.sleep(0.25)  # past breaker_reset_timeout
                    assert backend.get("ns", "result", ("k",)) == 1.5
                    assert backend.degraded is False
                    stats = backend.breaker_stats()
                    assert stats["state"] == CLOSED
                    assert stats["recoveries"] >= 1
                finally:
                    backend.close()

    def test_frozen_server_surfaces_as_a_bounded_timeout(self):
        with CacheServerThread(max_entries=256) as handle:
            with ChaosProxy("127.0.0.1", handle.server.port) as proxy:
                backend = _resilient_backend(proxy.port, retry_attempts=1)
                try:
                    backend.put("ns", "result", ("k",), 2.5)
                    proxy.freeze()
                    backend.release("ns")
                    started = time.monotonic()
                    assert backend.get("ns", "result", ("k",)) is None
                    elapsed = time.monotonic() - started
                    # One op_timeout (0.5s) per attempt, not a hang.
                    assert elapsed < 5.0
                    proxy.thaw()
                finally:
                    backend.close()

    def test_served_bytes_identical_through_a_flaky_network(self, planner):
        """The acceptance scenario: a batch run through a proxy dropping,
        delaying and killing traffic produces byte-identical answers —
        sharing degrades, correctness never does."""
        request = {
            "database": "demo",
            "mechanism": "PM",
            "epsilon": 0.5,
            "query": "Qc3",
            "trials": 2,
        }
        with backend_scope(LocalCacheBackend(64)):
            reference = planner.execute(planner.plan(request))
        chaos = FaultSpec(drop_rate=0.05, kill_rate=0.02, delay_s=0.005, delay_rate=0.3)
        with CacheServerThread(max_entries=2048) as handle:
            with ChaosProxy("127.0.0.1", handle.server.port, spec=chaos) as proxy:
                backend = _resilient_backend(
                    proxy.port, op_timeout=0.25, breaker_threshold=3
                )
                try:
                    with backend_scope(backend):
                        first = planner.execute(planner.plan(request))
                        again = planner.execute(planner.plan(request))
                finally:
                    backend.close()
                assert proxy.stats()["chunks_seen"] > 0
        assert (
            json.dumps(reference["answers"])
            == json.dumps(first["answers"])
            == json.dumps(again["answers"])
        )
        assert reference["mean_relative_error"] == first["mean_relative_error"]

    def test_oversized_value_stays_local_without_degrading(self, monkeypatch):
        import repro.db.cache.remote as remote_module

        with CacheServerThread(max_entries=256) as handle:
            backend = _resilient_backend(handle.server.port)
            try:
                monkeypatch.setattr(remote_module, "MAX_FRAME_PAYLOAD", 64)
                backend.put("ns", "result", ("big",), tuple(range(1000)))
                # L1 holds it; the remote tier was never asked to.
                assert backend.get("ns", "result", ("big",)) == tuple(range(1000))
                assert backend.stats().shared_puts == 0
                assert backend.degraded is False
            finally:
                backend.close()


# ----------------------------------------------------------------------
# frame-size bounds on the cache wire protocol
# ----------------------------------------------------------------------
class TestFrameBounds:
    def _expect_bad_frame(self, port, raw_prefix_frames):
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            stream = sock.makefile("rwb")
            for blob in raw_prefix_frames:
                stream.write(blob)
            stream.flush()
            header, _, _ = read_frame(stream)
            assert header["ok"] is False
            assert "bad frame" in header["error"]
            assert "bound" in header["error"]
            # The connection cannot be resynchronised: the server drops it.
            assert stream.read(1) == b""

    def test_oversized_header_length_is_refused_structurally(self):
        with CacheServerThread(max_entries=16) as handle:
            self._expect_bad_frame(
                handle.server.port, [struct.pack(">I", MAX_FRAME_HEADER + 1)]
            )

    def test_oversized_payload_length_is_refused_structurally(self):
        header = json.dumps({"op": "ping"}).encode()
        with CacheServerThread(max_entries=16) as handle:
            self._expect_bad_frame(
                handle.server.port,
                [
                    struct.pack(">I", len(header)),
                    header,
                    struct.pack(">I", MAX_FRAME_PAYLOAD + 1),
                ],
            )


# ----------------------------------------------------------------------
# the durable budget ledger
# ----------------------------------------------------------------------
class TestDurableLedger:
    def test_memory_only_ledger_reports_not_durable(self):
        ledger = BudgetLedger(PrivacyBudget(1.0))
        assert ledger.durable is False
        assert ledger.journal is None

    def test_settled_spend_survives_a_restart(self, tmp_path):
        path = str(tmp_path / "ledger.db")
        ledger = BudgetLedger(PrivacyBudget(1.0), path=path)
        assert ledger.durable is True
        admission = ledger.admit("alice", PrivacyBudget(0.3), label="q1")
        ledger.settle(admission)
        ledger.close()

        reborn = BudgetLedger(PrivacyBudget(1.0), path=path)
        assert reborn.recovered_analysts == 1
        assert reborn.summary("alice")["spent_epsilon"] == pytest.approx(0.3)
        assert reborn.summary("alice")["remaining_epsilon"] == pytest.approx(0.7)
        reborn.close()

    def test_pending_charge_replays_as_spent(self, tmp_path):
        """A crash mid-query strands the charge in ``pending``; replay must
        count it as spent — the answer may have been released — and relabel
        it ``recovered`` for the audit trail."""
        path = str(tmp_path / "ledger.db")
        ledger = BudgetLedger(PrivacyBudget(1.0), path=path)
        ledger.admit("alice", PrivacyBudget(0.4), label="stranded")
        ledger.close()  # never settled: the "crash"

        reborn = BudgetLedger(PrivacyBudget(1.0), path=path)
        assert reborn.summary("alice")["spent_epsilon"] == pytest.approx(0.4)
        assert reborn.journal.stats()["by_state"].get("recovered") == 1
        reborn.close()

    def test_voided_charge_and_generic_refund_reconcile(self, tmp_path):
        path = str(tmp_path / "ledger.db")
        ledger = BudgetLedger(PrivacyBudget(1.0), path=path)
        admission = ledger.admit("bob", PrivacyBudget(0.5), label="failed")
        ledger.refund_admission(admission)  # execution released nothing
        settled = ledger.admit("bob", PrivacyBudget(0.3), label="ok")
        ledger.settle(settled)
        ledger.refund("bob", PrivacyBudget(0.1), label="goodwill")
        ledger.close()

        reborn = BudgetLedger(PrivacyBudget(1.0), path=path)
        assert reborn.summary("bob")["spent_epsilon"] == pytest.approx(0.2)
        reborn.close()

    def test_refund_for_unknown_analyst_warns_and_charges_nothing(self):
        ledger = BudgetLedger(PrivacyBudget(1.0), max_analysts=1)
        with pytest.warns(RuntimeWarning, match="unknown analyst"):
            ledger.refund("nobody", PrivacyBudget(0.1))
        # The bogus refund must not have burned the one analyst slot.
        ledger.admit("alice", PrivacyBudget(0.1))

    def test_replay_over_a_lowered_budget_starts_exhausted(self, tmp_path):
        path = str(tmp_path / "ledger.db")
        ledger = BudgetLedger(PrivacyBudget(1.0), path=path)
        ledger.settle(ledger.admit("alice", PrivacyBudget(0.9), label="q"))
        ledger.close()

        # The operator restarts with a tighter budget: historical spend is
        # kept (over the new cap), and the account refuses new work.
        reborn = BudgetLedger(PrivacyBudget(0.5), path=path)
        assert reborn.summary("alice")["spent_epsilon"] == pytest.approx(0.9)
        with pytest.raises(ServingError) as info:
            reborn.admit("alice", PrivacyBudget(0.1))
        assert info.value.code == "budget_exhausted"
        reborn.close()

    def test_journal_write_failure_fails_closed(self, tmp_path, monkeypatch):
        ledger = BudgetLedger(PrivacyBudget(1.0), path=str(tmp_path / "ledger.db"))

        def explode(*_args, **_kwargs):
            raise sqlite3.OperationalError("disk I/O error")

        monkeypatch.setattr(ledger.journal, "record_charge", explode)
        with pytest.raises(ServingError) as info:
            ledger.admit("alice", PrivacyBudget(0.4))
        assert info.value.code == "internal"
        monkeypatch.undo()
        # The in-memory charge was undone: the full budget is still there.
        ledger.admit("alice", PrivacyBudget(1.0))
        ledger.close()

    def test_corrupt_journal_is_quarantined_not_fatal(self, tmp_path):
        path = tmp_path / "ledger.db"
        path.write_bytes(b"this was never a sqlite file")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            ledger = BudgetLedger(PrivacyBudget(1.0), path=str(path))
        assert ledger.durable is True  # a fresh journal took over
        assert path.with_suffix(".db.corrupt").exists()
        ledger.settle(ledger.admit("alice", PrivacyBudget(0.2)))
        ledger.close()
        reborn = BudgetLedger(PrivacyBudget(1.0), path=str(path))
        assert reborn.summary("alice")["spent_epsilon"] == pytest.approx(0.2)
        reborn.close()

    def test_journal_stats_shape(self, tmp_path):
        journal = LedgerJournal(str(tmp_path / "ledger.db"))
        journal.record_charge("alice", 0.1, 0.0, "q", parallel=False)
        stats = journal.stats()
        assert stats["persisted"] is True
        assert stats["entries"] == 1
        assert stats["by_state"] == {"pending": 1}
        assert stats["charges_journalled"] == 1
        journal.close()

    def test_sigkill_mid_charge_is_never_under_charged(self, tmp_path):
        """Crash-recovery end to end: a process admits a charge and dies on
        SIGKILL before anything settles.  The journal, written with
        synchronous=FULL before admit() returned, must replay the full
        charge."""
        path = str(tmp_path / "ledger.db")
        script = (
            "import os, signal\n"
            "from repro.dp.accountant import PrivacyBudget\n"
            "from repro.serving import BudgetLedger\n"
            f"ledger = BudgetLedger(PrivacyBudget(1.0), path={path!r})\n"
            "ledger.admit('alice', PrivacyBudget(0.3), label='doomed')\n"
            "print('ADMITTED', flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=_subprocess_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == -signal.SIGKILL
        assert "ADMITTED" in result.stdout

        reborn = BudgetLedger(PrivacyBudget(1.0), path=path)
        assert reborn.summary("alice")["spent_epsilon"] == pytest.approx(0.3)
        assert reborn.journal.stats()["by_state"].get("recovered") == 1
        reborn.close()


# ----------------------------------------------------------------------
# overload shedding and the health op
# ----------------------------------------------------------------------
class TestOverloadShedding:
    def test_ctor_validation(self, planner):
        with pytest.raises(ValueError):
            QueryServer(planner, max_inflight=0)
        with pytest.raises(ValueError):
            QueryServer(planner, max_queue=-1)

    def _gated_server(self, planner, monkeypatch, max_queue):
        gate = threading.Event()
        original = planner.execute

        def gated(planned):
            gate.wait(timeout=30)
            return original(planned)

        monkeypatch.setattr(planner, "execute", gated)
        server = QueryServer(
            planner,
            BudgetLedger(PrivacyBudget(10.0)),
            port=0,
            workers=1,
            max_inflight=1,
            max_queue=max_queue,
        )
        return server, gate

    def test_full_queue_refuses_with_structured_overloaded(self, planner, monkeypatch):
        server, gate = self._gated_server(planner, monkeypatch, max_queue=0)
        with ServerThread(server):
            results = []

            def slow_query():
                with ServingClient(port=server.port) as client:
                    results.append(
                        client.query("demo", "PM", 0.2, query="Qc1", analyst="alice")
                    )

            worker = threading.Thread(target=slow_query)
            worker.start()
            try:
                _wait_for(lambda: server._inflight == 1, message="the slot to fill")
                with ServingClient(port=server.port) as client:
                    with pytest.raises(ServingError) as info:
                        client.query("demo", "PM", 0.2, query="Qc1", analyst="bob")
                    error = info.value
                    assert error.code == "overloaded"
                    assert error.details["in_flight"] == 1
                    assert error.details["max_inflight"] == 1
                    assert error.details["max_queue"] == 0
                    assert error.details["retry_after_ms"] >= 50
                    # A shed request costs no budget.
                    assert client.budget("bob")["spent_epsilon"] == 0.0
            finally:
                gate.set()
                worker.join(timeout=30)
            assert server.requests_refused_overload == 1
            assert len(results) == 1  # the admitted query still completed

    def test_queued_request_waits_instead_of_being_shed(self, planner, monkeypatch):
        server, gate = self._gated_server(planner, monkeypatch, max_queue=4)
        with ServerThread(server):
            results = []

            def query(analyst):
                with ServingClient(port=server.port) as client:
                    results.append(
                        client.query("demo", "PM", 0.2, query="Qc1", analyst=analyst)
                    )

            workers = [
                threading.Thread(target=query, args=(name,))
                for name in ("alice", "bob")
            ]
            for worker in workers:
                worker.start()
            try:
                _wait_for(
                    lambda: server._inflight == 1 and server._queued == 1,
                    message="one running, one queued",
                )
            finally:
                gate.set()
                for worker in workers:
                    worker.join(timeout=30)
            assert len(results) == 2
            assert server.requests_refused_overload == 0

    def test_health_reports_queue_ledger_and_cache(self, planner, tmp_path):
        ledger = BudgetLedger(PrivacyBudget(1.0), path=str(tmp_path / "ledger.db"))
        server = QueryServer(planner, ledger, port=0, workers=2)
        with ServerThread(server):
            with ServingClient(port=server.port) as client:
                client.query("demo", "PM", 0.2, query="Qc1", analyst="alice")
                health = client.health()
        assert health["status"] == "ok"
        assert health["queue"]["in_flight"] == 0
        assert health["queue"]["max_inflight"] == 2
        assert health["ledger"]["analysts"] == 1
        assert health["ledger"]["durable"] is True
        assert health["ledger"]["journal"]["by_state"] == {"settled": 1}
        assert health["cache"]["backend"] == "local"
        assert health["cache"]["degraded"] is False

    def test_stats_include_overload_and_breaker_counters(self, planner):
        server = QueryServer(planner, BudgetLedger(PrivacyBudget(1.0)), port=0)
        with ServerThread(server):
            with ServingClient(port=server.port) as client:
                stats = client.stats()
        assert stats["requests_refused_overload"] == 0
        assert stats["cache"]["degraded"] is False
        assert "breaker" in stats["cache"]


# ----------------------------------------------------------------------
# durable serving end to end
# ----------------------------------------------------------------------
class TestDurableServing:
    def test_spend_and_answers_survive_a_server_restart(self, planner, tmp_path):
        """The headline scenario: query a durable server, restart it on the
        same journal, and the analyst's spend is remembered while the same
        request still returns byte-identical bytes."""
        path = str(tmp_path / "ledger.db")

        server = QueryServer(
            planner, BudgetLedger(PrivacyBudget(1.0), path=path), port=0
        )
        with ServerThread(server):
            with ServingClient(port=server.port) as client:
                first = client.query("demo", "PM", 0.3, query="Qc1", analyst="alice")
        # ServerThread.stop → aclose() closed the ledger journal cleanly.

        reborn_ledger = BudgetLedger(PrivacyBudget(1.0), path=path)
        assert reborn_ledger.recovered_analysts == 1
        server = QueryServer(planner, reborn_ledger, port=0)
        with ServerThread(server):
            with ServingClient(port=server.port) as client:
                budget = client.budget("alice")
                assert budget["spent_epsilon"] == pytest.approx(0.3)
                second = client.query("demo", "PM", 0.3, query="Qc1", analyst="alice")
                # 0.3 before the restart + 0.3 now: only 0.4 is left.
                assert second["privacy"]["remaining_epsilon"] == pytest.approx(0.4)
                with pytest.raises(ServingError) as info:
                    client.query("demo", "PM", 0.5, query="Qc1", analyst="alice")
                assert info.value.code == "budget_exhausted"
        # The planner is deterministic per request: the restart changed
        # nothing about the answer bytes.
        assert json.dumps(first["answers"]) == json.dumps(second["answers"])

    def test_failed_execution_refunds_through_the_journal(self, planner, tmp_path):
        path = str(tmp_path / "ledger.db")
        server = QueryServer(
            planner, BudgetLedger(PrivacyBudget(1.0), path=path), port=0
        )
        with ServerThread(server):
            with ServingClient(port=server.port) as client:
                with pytest.raises(ServingError) as info:
                    client.query("demo", "LS", 0.5, query="Qs2", analyst="dave")
                assert info.value.code == "unsupported"

        reborn = BudgetLedger(PrivacyBudget(1.0), path=path)
        # The voided charge reconciled: nothing replays as spent.
        assert reborn.summary("dave")["spent_epsilon"] == pytest.approx(0.0)
        reborn.close()


# ----------------------------------------------------------------------
# graceful drain and loud stop
# ----------------------------------------------------------------------
class TestGracefulDrain:
    def test_inflight_query_gets_its_answer_through_shutdown(self, planner, monkeypatch):
        """A request whose line was read before shutdown must receive its
        response — an answered charge with a dropped answer would be the
        worst of both worlds."""
        original = planner.execute

        def slow(planned):
            time.sleep(0.4)
            return original(planned)

        monkeypatch.setattr(planner, "execute", slow)
        server = QueryServer(planner, BudgetLedger(PrivacyBudget(1.0)), port=0)
        handle = ServerThread(server).start()
        results = []

        def query():
            with ServingClient(port=server.port) as client:
                results.append(client.query("demo", "PM", 0.2, query="Qc1", analyst="a"))

        worker = threading.Thread(target=query)
        worker.start()
        _wait_for(lambda: server._inflight == 1, message="the query to start")
        handle.stop()  # drains: the in-flight response must still go out
        worker.join(timeout=30)
        assert len(results) == 1
        assert "answer" in results[0]

    def test_server_thread_stop_raises_on_a_hung_loop(self, planner):
        server = QueryServer(planner, BudgetLedger(PrivacyBudget(1.0)), port=0)
        handle = ServerThread(server).start()
        real_thread = handle._thread

        class HungThread:
            def is_alive(self):
                return True

            def join(self, timeout=None):
                pass

        handle._thread = HungThread()
        try:
            with pytest.raises(RuntimeError, match="did not stop"):
                handle.stop(timeout=0.1)
        finally:
            handle._thread = real_thread
            handle.stop()

    def test_cache_server_thread_stop_raises_on_a_hung_loop(self):
        handle = CacheServerThread(max_entries=16).start()
        real_thread = handle._thread

        class HungThread:
            def is_alive(self):
                return True

            def join(self, timeout=None):
                pass

        handle._thread = HungThread()
        try:
            with pytest.raises(RuntimeError, match="did not stop"):
                handle.stop(timeout=0.1)
        finally:
            handle._thread = real_thread
            handle.stop()


class TestSigtermShutdown:
    """Real-signal coverage: both ``python -m`` servers exit 0 on SIGTERM."""

    def _spawn(self, argv, ready_marker):
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", *argv],
            env=_subprocess_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        banner = []
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                break
            banner.append(line)
            if ready_marker in line:
                return process, "".join(banner)
        process.kill()
        raise AssertionError(f"server never printed {ready_marker!r}: {banner}")

    @staticmethod
    def _port_from(banner):
        where = banner.split(" on ", 1)[1].split(" ", 1)[0]
        return int(where.rsplit(":", 1)[1])

    def test_serving_server_drains_on_sigterm(self):
        process, banner = self._spawn(
            ["repro.serving", "--port", "0", "--seed", "1"], "serving on "
        )
        # A completed round trip proves the loop reached its serve-await,
        # which is after the signal handlers were installed — a SIGTERM
        # racing the startup banner would otherwise kill the process cold.
        with ServingClient(port=self._port_from(banner)) as client:
            client.ping()
        process.send_signal(signal.SIGTERM)
        remainder = process.communicate(timeout=60)[0]
        assert process.returncode == 0
        assert "server stopped" in remainder

    def test_cache_server_drains_on_sigterm(self):
        process, banner = self._spawn(
            ["repro.db.cache.server", "--port", "0"], "cache server on "
        )
        from repro.db.cache.wire import write_frame

        with socket.create_connection(
            ("127.0.0.1", self._port_from(banner)), timeout=30
        ) as sock:
            stream = sock.makefile("rwb")
            write_frame(stream, {"op": "ping"})
            header, _, _ = read_frame(stream)
            assert header["ok"] is True
        process.send_signal(signal.SIGTERM)
        remainder = process.communicate(timeout=60)[0]
        assert process.returncode == 0
        assert "cache server stopped" in remainder


# ----------------------------------------------------------------------
# the CLI wiring
# ----------------------------------------------------------------------
class TestLedgerCLIWiring:
    def test_serving_main_accepts_ledger_path(self, tmp_path, monkeypatch):
        import repro.serving.server as server_module

        captured = {}

        def fake_run(coro):
            coro.close()
            captured["ran"] = True

        monkeypatch.setattr(server_module.asyncio, "run", fake_run)
        path = str(tmp_path / "ledger.db")
        assert server_module.main(["--port", "0", "--ledger-path", path]) == 0
        assert captured["ran"] is True
        assert Path(path).exists()  # the journal was created on startup

    def test_evaluation_cli_forwards_ledger_path(self, tmp_path, monkeypatch):
        import repro.serving.server as server_module
        from repro.evaluation.cli import main as cli_main

        captured = {}

        def fake_main(argv):
            captured["argv"] = list(argv)
            return 0

        monkeypatch.setattr(server_module, "main", fake_main)
        path = str(tmp_path / "ledger.db")
        assert cli_main(["--serve", "--ledger-path", path]) == 0
        argv = captured["argv"]
        assert argv[argv.index("--ledger-path") + 1] == path

    def test_evaluation_cli_rejects_ledger_path_without_serve(self, capsys):
        from repro.evaluation.cli import main as cli_main

        assert cli_main(["--ledger-path", "x.db"]) == 2
        assert "--serve" in capsys.readouterr().err


# ----------------------------------------------------------------------
# backoff jitter must not be correlated across forked workers
# ----------------------------------------------------------------------
def _draw_jitter_sequence(backend, queue):
    queue.put([backend._jitter_rng().random() for _ in range(8)])


class TestBackoffJitterSeeding:
    """A pool of forked workers retrying against the same flaky server must
    not share one jitter stream — identical streams re-synchronise every
    worker's backoff and turn the retries into a thundering herd."""

    def test_forked_workers_draw_divergent_jitter(self):
        if not hasattr(os, "fork"):
            pytest.skip("fork-based workers are a POSIX feature")
        mp = multiprocessing.get_context("fork")
        backend = _resilient_backend(port=65001)  # never connects: jitter only
        try:
            # Seed the parent's stream *before* forking — the regression was
            # children inheriting exactly this state.
            parent = [backend._jitter_rng().random() for _ in range(8)]
            queue = mp.Queue()
            workers = [
                mp.Process(target=_draw_jitter_sequence, args=(backend, queue))
                for _ in range(3)
            ]
            for worker in workers:
                worker.start()
            sequences = [queue.get(timeout=30) for _ in workers]
            for worker in workers:
                worker.join(timeout=30)
            streams = [parent] + sequences
            for i in range(len(streams)):
                for j in range(i + 1, len(streams)):
                    assert streams[i] != streams[j]
        finally:
            backend.close()

    def test_rng_reseeds_when_pid_changes(self):
        backend = _resilient_backend(port=65001)
        try:
            first = backend._jitter_rng()
            assert backend._jitter_rng() is first  # stable within one process
            # Simulate waking up in a forked child: the recorded pid no
            # longer matches, so the next draw must come from a fresh RNG.
            backend._jitter_pid -= 1
            assert backend._jitter_rng() is not first
        finally:
            backend.close()

    def test_two_backends_in_one_process_diverge(self):
        a = _resilient_backend(port=65001)
        b = _resilient_backend(port=65002)
        try:
            draws_a = [a._jitter_rng().random() for _ in range(8)]
            draws_b = [b._jitter_rng().random() for _ in range(8)]
            assert draws_a != draws_b
        finally:
            a.close()
            b.close()


# ----------------------------------------------------------------------
# the overload retry hint must scale with the backlog
# ----------------------------------------------------------------------
class TestRetryAfterScalesWithBacklog:
    """A cold server (no execution EWMA yet) used to hint a flat 100 ms
    whatever the queue looked like, so every shed client came back at once
    and was shed again.  The cold estimate now multiplies by the backlog."""

    def _bare_server(self, planner, **kwargs):
        return QueryServer(
            planner, BudgetLedger(PrivacyBudget(1.0)), workers=1, **kwargs
        )

    def test_cold_hint_scales_with_queue_depth(self, planner):
        server = self._bare_server(planner, max_queue=16)
        try:
            server._execution_ewma = None
            for inflight, queued in [(0, 0), (1, 0), (1, 4), (1, 16)]:
                server._inflight, server._queued = inflight, queued
                backlog = inflight + queued
                expected = max(
                    50, int(COLD_START_EXECUTION_ESTIMATE_S * (backlog + 1) * 1000)
                )
                assert server._retry_after_ms() == expected
        finally:
            server._executor.shutdown(wait=False)

    def test_cold_hint_is_monotone_in_backlog(self, planner):
        server = self._bare_server(planner, max_queue=32)
        try:
            server._execution_ewma = None
            server._inflight = 1
            hints = []
            for queued in (0, 2, 8, 32):
                server._queued = queued
                hints.append(server._retry_after_ms())
            assert hints == sorted(hints)
            assert hints[-1] > hints[0]  # deeper backlog, later retry
        finally:
            server._executor.shutdown(wait=False)

    def test_warm_hint_uses_measured_ewma(self, planner):
        server = self._bare_server(planner, max_queue=8)
        try:
            server._execution_ewma = 0.3
            server._inflight, server._queued = 1, 1
            assert server._retry_after_ms() == int(0.3 * 3 * 1000)
        finally:
            server._executor.shutdown(wait=False)


# ----------------------------------------------------------------------
# the sharded backend with chaos on one shard
# ----------------------------------------------------------------------
class TestShardedBackendUnderChaos:
    def test_chaos_on_one_shard_never_changes_bytes(self, planner):
        """One cache shard's network turns to garbage mid-run, heals, and
        the breaker recovers — the answers never move (the replicated shard
        and the recompute rung absorb the damage)."""
        request = {
            "database": "demo",
            "mechanism": "PM",
            "epsilon": 0.5,
            "query": "Qc3",
            "trials": 2,
        }
        with backend_scope(LocalCacheBackend(64)):
            reference = planner.execute(planner.plan(request))
        with CacheServerThread(max_entries=2048) as steady:
            with CacheServerThread(max_entries=2048) as flaky:
                with ChaosProxy("127.0.0.1", flaky.server.port) as proxy:
                    backend = ShardedCacheBackend(
                        shards=[
                            _resilient_backend(steady.server.port),
                            _resilient_backend(proxy.port),
                        ],
                        replicas=2,
                    )
                    try:
                        with backend_scope(backend):
                            first = planner.execute(planner.plan(request))
                            # The flaky shard's network turns to garbage.
                            proxy.set_faults(corrupt_rate=1.0)
                            for shard in backend.shards:
                                shard._local.clear()
                            during = planner.execute(planner.plan(request))
                            # The network heals; the breaker probes back.
                            proxy.set_faults()
                            time.sleep(0.25)  # past breaker_reset_timeout
                            # Cold again, or the release memo in L1 would
                            # answer without probing the healed shard.
                            for shard in backend.shards:
                                shard._local.clear()
                            after = planner.execute(planner.plan(request))
                        assert proxy.stats()["chunks_seen"] > 0
                        assert backend.degraded is False
                        assert backend.breaker_stats()["state"] == "closed"
                    finally:
                        backend.close()
        assert (
            json.dumps(reference["answers"])
            == json.dumps(first["answers"])
            == json.dumps(during["answers"])
            == json.dumps(after["answers"])
        )
        assert reference["mean_relative_error"] == first["mean_relative_error"]
