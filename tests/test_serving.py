"""Tests for the online query-serving subsystem.

The contracts under test (see docs/SERVING.md):

* the per-analyst ledger admits sequential and parallel charges atomically
  and refuses overspend with a structured ``budget_exhausted`` error;
* served answers are byte-identical to the offline runner path under a fixed
  seed, for the local and the shared cache backend alike;
* concurrent identical requests coalesce into one engine execution, and a
  repeat across time is served from the planner's memo of released answers
  — byte-identical, never shared across seeds or privacy scenarios, and
  still charged;
* the TCP server round-trips queries, budgets, refusals and refunds as
  structured JSON — never a traceback.
"""

import json
import socket
import sys
import threading
import time

import pytest

from repro.db.cache import (
    LocalCacheBackend,
    RemoteCacheBackend,
    backend_scope,
)
from repro.db.cache.backend import REGION_MAX_BYTES, value_nbytes
from repro.db.engine import ExecutionEngine
from repro.db.executor import QueryExecutor
from repro.dp.accountant import PrivacyBudget
from repro.evaluation.runner import evaluate_mechanism, make_star_mechanism
from repro.exceptions import QueryError
from repro.serving import (
    BudgetLedger,
    QueryPlanner,
    QueryServer,
    ServerThread,
    ServingClient,
    ServingError,
    SingleFlight,
    request_stream,
    serialize_answer,
)
from repro.serving.protocol import decode_line, encode_message

SEED = 424242

#: Qc1 spelled as SQL: the same semantic key as the named query.
QC1_SQL = "SELECT count(*) FROM Lineorder, Date WHERE Date.year = 1993"


@pytest.fixture(scope="module")
def planner():
    planner = QueryPlanner(seed=SEED)
    planner.register("demo", "ssb", scale_factor=1.0, rows_per_scale_factor=2000, seed=5)
    planner.register("g1", "kstar", generator="powerlaw", num_nodes=200, num_edges=600, seed=3)
    return planner


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_message_round_trip(self):
        message = {"op": "query", "epsilon": 0.5, "id": 7}
        assert decode_line(encode_message(message)) == message

    def test_decode_rejects_non_json(self):
        with pytest.raises(ServingError) as info:
            decode_line(b"definitely not json\n")
        assert info.value.code == "bad_request"

    def test_decode_rejects_non_object(self):
        with pytest.raises(ServingError):
            decode_line(b"[1, 2, 3]\n")

    def test_error_payload_round_trip(self):
        error = ServingError("budget_exhausted", "no more", remaining_epsilon=0.25)
        back = ServingError.from_payload(error.to_payload())
        assert back.code == "budget_exhausted"
        assert back.details["remaining_epsilon"] == 0.25

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            ServingError("not-a-code", "nope")


# ----------------------------------------------------------------------
# ledger
# ----------------------------------------------------------------------
class TestLedger:
    def test_sequential_admissions_accumulate(self):
        ledger = BudgetLedger(PrivacyBudget(1.0))
        ledger.admit("alice", PrivacyBudget(0.4))
        ledger.admit("alice", PrivacyBudget(0.6))
        summary = ledger.summary("alice")
        assert summary["spent_epsilon"] == pytest.approx(1.0)
        assert summary["remaining_epsilon"] == pytest.approx(0.0)

    def test_refusal_is_structured_and_leaves_account_untouched(self):
        ledger = BudgetLedger(PrivacyBudget(1.0))
        ledger.admit("alice", PrivacyBudget(0.8))
        with pytest.raises(ServingError) as info:
            ledger.admit("alice", PrivacyBudget(0.4))
        error = info.value
        assert error.code == "budget_exhausted"
        assert error.details["analyst"] == "alice"
        assert error.details["remaining_epsilon"] == pytest.approx(0.2)
        assert error.details["requested_epsilon"] == 0.4
        # Refusal charged nothing; a fitting request is still admitted.
        ledger.admit("alice", PrivacyBudget(0.2))

    def test_analysts_are_isolated(self):
        ledger = BudgetLedger(PrivacyBudget(1.0))
        ledger.admit("alice", PrivacyBudget(1.0))
        ledger.admit("bob", PrivacyBudget(1.0))  # bob has his own accountant
        with pytest.raises(ServingError):
            ledger.admit("alice", PrivacyBudget(0.1))

    def test_parallel_admission_is_recorded_as_parallel(self):
        ledger = BudgetLedger(PrivacyBudget(1.0))
        ledger.admit("alice", PrivacyBudget(0.5), label="Qg2", parallel=True)
        assert ledger.summary("alice")["spent_epsilon"] == pytest.approx(0.5)

    def test_refund_restores_headroom(self):
        ledger = BudgetLedger(PrivacyBudget(1.0))
        budget = PrivacyBudget(0.7)
        ledger.admit("alice", budget)
        ledger.refund("alice", budget)
        ledger.admit("alice", PrivacyBudget(1.0))  # full budget available again

    def test_analyst_capacity_is_bounded(self):
        ledger = BudgetLedger(PrivacyBudget(1.0), max_analysts=2)
        ledger.admit("alice", PrivacyBudget(0.1))
        ledger.admit("bob", PrivacyBudget(0.1))
        with pytest.raises(ServingError) as info:
            ledger.admit("carol", PrivacyBudget(0.1))
        assert info.value.code == "bad_request"
        # Existing analysts are unaffected by the cap.
        ledger.admit("alice", PrivacyBudget(0.1))

    def test_budget_probe_does_not_allocate_an_account(self):
        ledger = BudgetLedger(PrivacyBudget(1.0), max_analysts=1)
        for index in range(5):  # probes for fresh names never hit the cap
            summary = ledger.summary(f"probe-{index}")
            assert summary["spent_epsilon"] == 0.0
        ledger.admit("alice", PrivacyBudget(0.1))  # the one slot is still free

    def test_concurrent_admissions_never_overspend(self):
        ledger = BudgetLedger(PrivacyBudget(1.0))
        outcomes = []

        def worker():
            try:
                ledger.admit("alice", PrivacyBudget(0.1))
                outcomes.append(True)
            except ServingError:
                outcomes.append(False)

        threads = [threading.Thread(target=worker) for _ in range(20)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(outcomes) == 10
        assert ledger.summary("alice")["spent_epsilon"] <= 1.0 + 1e-9


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------
class TestPlanner:
    def test_register_same_spec_is_idempotent(self, planner):
        info = planner.register(
            "demo", "ssb", scale_factor=1.0, rows_per_scale_factor=2000, seed=5
        )
        assert info["already_registered"] is True

    def test_register_conflicting_spec_is_refused(self, planner):
        with pytest.raises(ServingError) as info:
            planner.register(
                "demo", "ssb", scale_factor=2.0, rows_per_scale_factor=2000, seed=5
            )
        assert info.value.code == "already_registered"

    def test_register_unknown_kind_is_refused(self, planner):
        with pytest.raises(ServingError) as info:
            planner.register("x", "oracle")
        assert info.value.code == "bad_request"

    def test_register_unknown_parameter_is_refused(self, planner):
        with pytest.raises(ServingError):
            planner.register("x", "ssb", wibble=3)

    def test_unknown_database_is_structured(self, planner):
        with pytest.raises(ServingError) as info:
            planner.plan({"database": "nope", "mechanism": "PM", "epsilon": 0.5, "query": "Qc1"})
        assert info.value.code == "unknown_database"
        assert "demo" in info.value.details["available"]

    @pytest.mark.parametrize(
        "patch",
        [
            {"mechanism": "XX"},
            {"epsilon": -1.0},
            {"epsilon": "much"},
            {"trials": 0},
            {"trials": 1000},
            {"delta": 1e-6},
            {"query": None, "sql": None},
            {"query": "Qc1", "sql": "SELECT count(*) FROM Lineorder"},
        ],
    )
    def test_invalid_requests_are_bad_requests(self, planner, patch):
        request = {"database": "demo", "mechanism": "PM", "epsilon": 0.5, "query": "Qc1"}
        request.update(patch)
        request = {key: value for key, value in request.items() if value is not None}
        with pytest.raises(ServingError) as info:
            planner.plan(request)
        assert info.value.code == "bad_request"

    def test_bad_sql_is_a_query_error(self, planner):
        with pytest.raises(ServingError) as info:
            planner.plan(
                {
                    "database": "demo",
                    "mechanism": "PM",
                    "epsilon": 0.5,
                    "sql": "SELECT count(*) FROM Lineorder HAVING count(*) > 1",
                }
            )
        assert info.value.code == "query_error"

    def test_sql_and_named_query_share_stream_and_flight(self, planner):
        named = planner.plan(
            {"database": "demo", "mechanism": "PM", "epsilon": 0.5, "query": "Qc1"}
        )
        sql = planner.plan(
            {
                "database": "demo",
                "mechanism": "PM",
                "epsilon": 0.5,
                "sql": "SELECT count(*) FROM Lineorder, Date WHERE Date.year = 1993",
            }
        )
        assert named.query_label == sql.query_label
        assert named.key == sql.key
        assert planner.execute(named)["answers"] == planner.execute(sql)["answers"]

    def test_grouped_query_plans_parallel_composition(self, planner):
        planned = planner.plan(
            {"database": "demo", "mechanism": "PM", "epsilon": 0.5, "query": "Qg2"}
        )
        assert planned.parallel is True

    def test_unsupported_combination_is_structured(self, planner):
        planned = planner.plan(
            {"database": "demo", "mechanism": "LS", "epsilon": 0.5, "query": "Qs2"}
        )
        with pytest.raises(ServingError) as info:
            planner.execute(planned)
        assert info.value.code == "unsupported"

    def test_kstar_query_round_trip(self, planner):
        planned = planner.plan(
            {"database": "g1", "mechanism": "PM", "epsilon": 0.5, "k": 2}
        )
        payload = planner.execute(planned)
        assert payload["answer"] == pytest.approx(payload["answers"][0])
        repeat = planner.execute(planned)
        assert repeat["answers"] == payload["answers"]

    def test_kstar_requires_k(self, planner):
        with pytest.raises(ServingError) as info:
            planner.plan({"database": "g1", "mechanism": "PM", "epsilon": 0.5})
        assert info.value.code == "bad_request"


# ----------------------------------------------------------------------
# determinism / parity with the offline runner
# ----------------------------------------------------------------------
class TestOfflineParity:
    """Served answers are byte-identical to the offline runner path."""

    def _offline_answers(self, planner, planned):
        entry = planned.entry
        mechanism = make_star_mechanism(
            planned.mechanism, planned.epsilon, scenario=entry.scenario
        )
        result = evaluate_mechanism(
            mechanism,
            entry.database,
            planned.query,
            trials=planned.trials,
            rng=request_stream(
                planner.seed,
                entry.name,
                planned.mechanism,
                planned.query_label,
                planned.epsilon,
                planned.trials,
            ),
            exact_answer=QueryExecutor(entry.database).execute(planned.query),
            record_answers=True,
        )
        return result

    @pytest.mark.parametrize("mechanism,query", [("PM", "Qc1"), ("R2T", "Qs2"), ("PM", "Qg2")])
    def test_served_equals_offline(self, planner, mechanism, query):
        planned = planner.plan(
            {
                "database": "demo",
                "mechanism": mechanism,
                "epsilon": 0.5,
                "query": query,
                "trials": 3,
            }
        )
        payload = planner.execute(planned)
        offline = self._offline_answers(planner, planned)
        assert payload["answers"] == [serialize_answer(a) for a in offline.answers]
        assert payload["mean_relative_error"] == offline.mean_relative_error

    def test_parity_across_cache_backends(self, planner, tmp_path):
        """--cache-backend local and remote (embedded server) serve
        identical bytes."""
        request = {
            "database": "demo",
            "mechanism": "PM",
            "epsilon": 0.5,
            "query": "Qc3",
            "trials": 2,
        }
        with backend_scope(LocalCacheBackend(64)):
            local = planner.execute(planner.plan(request))
        remote_backend = RemoteCacheBackend(path=str(tmp_path / "cache.db"), max_entries=64)
        try:
            with backend_scope(remote_backend):
                remote = planner.execute(planner.plan(request))
            # Run twice through the server: the second pass is a new client
            # (an empty L1, so it misses the memo) executing on the
            # artefacts the first left in the server, and must not change
            # the bytes either.
            second_client = RemoteCacheBackend(host="127.0.0.1", port=remote_backend.port)
            misses_before = planner.memo_misses
            try:
                with backend_scope(second_client):
                    remote_again = planner.execute(planner.plan(request))
                shared_hits = second_client.stats().shared_hits
            finally:
                second_client.close()
            assert planner.memo_misses - misses_before == 1
            assert shared_hits > 0
        finally:
            remote_backend.close()
        assert (
            json.dumps(local["answers"])
            == json.dumps(remote["answers"])
            == json.dumps(remote_again["answers"])
        )
        assert local["mean_relative_error"] == remote["mean_relative_error"]

    def test_parity_with_tracing_on(self, planner, tmp_path):
        """--trace-path observes the request; the bytes must not move."""
        from repro.obs.trace import trace_scope

        request = {
            "database": "demo",
            "mechanism": "PM",
            "epsilon": 0.5,
            "query": "Qc3",
            "trials": 2,
        }
        # Each pass on a fresh backend: a repeat on one backend would be a
        # memo hit, comparing the first pass's payload with itself.
        with backend_scope(LocalCacheBackend()):
            untraced = planner.execute(planner.plan(request))
        misses_before = planner.memo_misses
        with backend_scope(LocalCacheBackend()), trace_scope(str(tmp_path / "trace.jsonl")):
            traced = planner.execute(planner.plan(request))
        assert planner.memo_misses - misses_before == 1
        assert json.dumps(traced["answers"]) == json.dumps(untraced["answers"])
        assert traced["mean_relative_error"] == untraced["mean_relative_error"]


class TestRemoteCacheServerParity:
    """Serving through a live out-of-process cache server: the bytes match
    the local-backend reference, and a batch run against the same server
    warms a *separately launched* serving process (and vice versa)."""

    REQUEST = {
        "database": "demo",
        "mechanism": "PM",
        "epsilon": 0.5,
        "query": "Qc3",
        "trials": 2,
    }

    def _fresh_planner(self):
        planner = QueryPlanner(seed=SEED)
        planner.register("demo", "ssb", scale_factor=1.0, rows_per_scale_factor=2000, seed=5)
        return planner

    def test_served_bytes_identical_through_live_cache_server(self):
        from repro.db.cache.server import CacheServerThread

        with backend_scope(LocalCacheBackend(64)):
            planner = self._fresh_planner()
            reference = planner.execute(planner.plan(self.REQUEST))
        with CacheServerThread(max_entries=2048) as handle:
            backend = RemoteCacheBackend(host="127.0.0.1", port=handle.server.port)
            try:
                with backend_scope(backend):
                    planner = self._fresh_planner()
                    first = planner.execute(planner.plan(self.REQUEST))
            finally:
                backend.close()
            # The second pass is a new client with an empty L1: it misses
            # the memo and executes on the first pass's server artefacts.
            backend = RemoteCacheBackend(host="127.0.0.1", port=handle.server.port)
            try:
                with backend_scope(backend):
                    again = planner.execute(planner.plan(self.REQUEST))
                    assert (planner.memo_hits, planner.memo_misses) == (0, 2)
            finally:
                backend.close()
        assert (
            json.dumps(reference["answers"])
            == json.dumps(first["answers"])
            == json.dumps(again["answers"])
        )
        assert reference["mean_relative_error"] == first["mean_relative_error"]

    def test_batch_run_warms_a_separate_serving_process(self):
        """Two planners with two distinct clients — standing in for a batch
        run and a later serving process that never forked from it — share
        exact answers and cubes through content-addressed server entries."""
        from repro.db.cache.server import CacheServerThread

        with CacheServerThread(max_entries=2048) as handle:
            batch_backend = RemoteCacheBackend(host="127.0.0.1", port=handle.server.port)
            with backend_scope(batch_backend):
                batch_planner = self._fresh_planner()
                batch = batch_planner.execute(batch_planner.plan(self.REQUEST))
            batch_backend.close()

            serving_backend = RemoteCacheBackend(host="127.0.0.1", port=handle.server.port)
            with backend_scope(serving_backend):
                serving_planner = self._fresh_planner()  # its own database build
                served = serving_planner.execute(serving_planner.plan(self.REQUEST))
            hits = serving_backend.stats().shared_hits
            serving_backend.close()
        assert json.dumps(served["answers"]) == json.dumps(batch["answers"])
        assert hits > 0  # the batch run's artefacts served the "online" process


# ----------------------------------------------------------------------
# single-flight coalescing
# ----------------------------------------------------------------------
class TestSingleFlight:
    def test_concurrent_calls_share_one_execution(self):
        flight = SingleFlight()
        gate = threading.Event()
        calls = []

        def fn():
            calls.append(1)
            gate.wait(timeout=10)
            return "value"

        results = []

        def caller():
            results.append(flight.do("key", fn))

        threads = [threading.Thread(target=caller) for _ in range(8)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10
        while flight.coalesced < 7 and time.monotonic() < deadline:
            time.sleep(0.005)
        gate.set()
        for thread in threads:
            thread.join(timeout=10)
        assert calls == [1]
        assert flight.executions == 1
        assert flight.coalesced == 7
        assert sorted(shared for _, shared in results) == [False] + [True] * 7
        assert all(value == "value" for value, _ in results)

    def test_errors_propagate_to_all_waiters(self):
        flight = SingleFlight()
        gate = threading.Event()

        def fn():
            gate.wait(timeout=10)
            raise RuntimeError("boom")

        errors = []

        def caller():
            try:
                flight.do("key", fn)
            except RuntimeError as error:
                errors.append(error)

        threads = [threading.Thread(target=caller) for _ in range(4)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10
        while flight.coalesced < 3 and time.monotonic() < deadline:
            time.sleep(0.005)
        gate.set()
        for thread in threads:
            thread.join(timeout=10)
        assert len(errors) == 4
        assert flight.in_flight() == 0

    def test_sequential_calls_do_not_coalesce(self):
        flight = SingleFlight()
        assert flight.do("key", lambda: 1) == (1, False)
        assert flight.do("key", lambda: 2) == (2, False)
        assert flight.coalesced == 0

    def test_planner_coalesces_identical_concurrent_requests(self, planner, monkeypatch):
        planned = planner.plan(
            {"database": "demo", "mechanism": "PM", "epsilon": 0.9, "query": "Qc2"}
        )
        executions_before = planner.singleflight.executions
        coalesced_before = planner.singleflight.coalesced
        gate = threading.Event()
        original = planner._execute

        def gated(plan):
            gate.wait(timeout=10)
            return original(plan)

        monkeypatch.setattr(planner, "_execute", gated)
        payloads = []

        def caller():
            payloads.append(planner.execute(planned))

        threads = [threading.Thread(target=caller) for _ in range(6)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 10
        while planner.singleflight.coalesced - coalesced_before < 5:
            if time.monotonic() > deadline:
                break
            time.sleep(0.005)
        gate.set()
        for thread in threads:
            thread.join(timeout=10)
        assert planner.singleflight.executions - executions_before == 1
        assert len(payloads) == 6
        assert sorted(p["coalesced"] for p in payloads) == [False] + [True] * 5
        answers = {json.dumps(p["answers"]) for p in payloads}
        assert len(answers) == 1  # every waiter saw the one execution's bytes


# ----------------------------------------------------------------------
# the memo of released answers
# ----------------------------------------------------------------------
#: The payload fields a memo hit may report differently from a cold run.
VOLATILE_FIELDS = ("mean_time_s", "coalesced", "privacy")


def _released_bytes(payload: dict) -> str:
    return json.dumps({k: v for k, v in payload.items() if k not in VOLATILE_FIELDS})


def _offline(planner, planned):
    """The offline runner's result for a plan (``request_stream`` path)."""
    entry = planned.entry
    return evaluate_mechanism(
        make_star_mechanism(planned.mechanism, planned.epsilon, scenario=entry.scenario),
        entry.database,
        planned.query,
        trials=planned.trials,
        rng=request_stream(
            planner.seed,
            entry.name,
            planned.mechanism,
            planned.query_label,
            planned.epsilon,
            planned.trials,
        ),
        exact_answer=QueryExecutor(entry.database).execute(planned.query),
        record_answers=True,
    )


def _demo_planner(seed=SEED, **register):
    planner = QueryPlanner(seed=seed)
    planner.register(
        "demo", "ssb", scale_factor=1.0, rows_per_scale_factor=2000, seed=5, **register
    )
    return planner


@pytest.fixture()
def fresh_backend():
    """An empty active backend, so the first request of a test is cold."""
    with backend_scope(LocalCacheBackend()) as backend:
        yield backend


class TestReleaseMemo:
    @pytest.mark.parametrize(
        "mechanism,query,trials", [("PM", "Qc1", 1), ("R2T", "Qs2", 3), ("PM", "Qg2", 2)]
    )
    def test_hit_is_byte_identical_to_cold_and_offline(
        self, planner, fresh_backend, mechanism, query, trials
    ):
        planned = planner.plan(
            {
                "database": "demo",
                "mechanism": mechanism,
                "epsilon": 0.5,
                "query": query,
                "trials": trials,
            }
        )
        hits_before = planner.memo_hits
        cold = planner.execute(planned)
        hit = planner.execute(planned)
        assert planner.memo_hits - hits_before == 1
        assert _released_bytes(hit) == _released_bytes(cold)
        offline = _offline(planner, planned)
        assert hit["answers"] == [serialize_answer(a) for a in offline.answers]
        assert hit["answer"] == hit["answers"][0]
        assert hit["mean_relative_error"] == offline.mean_relative_error
        assert hit["median_relative_error"] == offline.median_relative_error

    def test_cold_traced_execution_matches_untraced(self, planner, tmp_path):
        """Tracing must not move the bytes of an execution.  A repeat on one
        backend would be a memo hit, so each pass gets a fresh backend and
        the traced pass provably runs its trials."""
        from repro.obs import summarize
        from repro.obs.trace import trace_scope

        request = {
            "database": "demo",
            "mechanism": "PM",
            "epsilon": 0.5,
            "query": "Qc3",
            "trials": 2,
        }
        with backend_scope(LocalCacheBackend()):
            untraced = planner.execute(planner.plan(request))
        path = tmp_path / "trace.jsonl"
        misses_before = planner.memo_misses
        with backend_scope(LocalCacheBackend()), trace_scope(str(path)):
            traced = planner.execute(planner.plan(request))
        assert planner.memo_misses - misses_before == 1
        spans = summarize.load_spans(str(path))
        assert any(record["name"] == "mechanism.trials" for record in spans)
        assert json.dumps(traced["answers"]) == json.dumps(untraced["answers"])
        assert traced["mean_relative_error"] == untraced["mean_relative_error"]

    def test_cold_pass_over_cache_server_artefacts_matches_reference(self):
        """A second serving process with an empty L1 misses the memo (it is
        never written to the server) and executes on kernel artefacts the
        first process left in the cache server: the bytes must not move."""
        from repro.db.cache.server import CacheServerThread

        request = TestRemoteCacheServerParity.REQUEST
        with backend_scope(LocalCacheBackend(64)):
            planner = _demo_planner()
            reference = planner.execute(planner.plan(request))
        served = []
        with CacheServerThread(max_entries=2048) as handle:
            for _ in range(2):
                backend = RemoteCacheBackend(host="127.0.0.1", port=handle.server.port)
                try:
                    with backend_scope(backend):
                        planner = _demo_planner()
                        served.append(planner.execute(planner.plan(request)))
                        assert (planner.memo_hits, planner.memo_misses) == (0, 1)
                        shared_hits = backend.stats().shared_hits
                finally:
                    backend.close()
        assert shared_hits > 0  # the second pass ran on the server's artefacts
        assert (
            json.dumps(reference["answers"])
            == json.dumps(served[0]["answers"])
            == json.dumps(served[1]["answers"])
        )
        assert reference["mean_relative_error"] == served[1]["mean_relative_error"]

    def test_payload_over_the_byte_cap_is_not_retained(self, planner, fresh_backend):
        """A client sizes a release (GROUP BY cardinality × trials); one over
        the region's fixed byte cap is served but never kept, while a small
        one in the same region still is."""
        large = planner.plan(
            {
                "database": "demo",
                "mechanism": "PM",
                "epsilon": 0.5,
                "trials": 50,
                "sql": (
                    "SELECT count(*) FROM Lineorder, Part, Customer "
                    "GROUP BY Part.brand, Customer.city"
                ),
            }
        )
        small = planner.plan(
            {"database": "demo", "mechanism": "PM", "epsilon": 0.5, "query": "Qc2"}
        )
        first = planner.execute(large)
        assert value_nbytes(first) > REGION_MAX_BYTES["release"]
        planner.execute(small)
        hits_before, misses_before = planner.memo_hits, planner.memo_misses
        again = planner.execute(large)
        planner.execute(small)
        assert planner.memo_misses - misses_before == 1
        assert planner.memo_hits - hits_before == 1
        assert again["answers"] == first["answers"]

    def test_coalesced_caller_names_its_own_query(self, planner, monkeypatch):
        """A SQL spelling coalesced behind the named form answers with the
        same bytes but under its own name, exactly as when sent alone."""
        named = planner.plan(
            {"database": "demo", "mechanism": "PM", "epsilon": 0.8, "query": "Qc1"}
        )
        sql = planner.plan({"database": "demo", "mechanism": "PM", "epsilon": 0.8, "sql": QC1_SQL})
        assert named.key == sql.key
        coalesced_before = planner.singleflight.coalesced
        entered, gate = threading.Event(), threading.Event()
        original = planner._execute

        def gated(plan):
            entered.set()
            gate.wait(timeout=10)
            return original(plan)

        monkeypatch.setattr(planner, "_execute", gated)
        payloads = {}
        leader = threading.Thread(
            target=lambda: payloads.__setitem__("named", planner.execute(named))
        )
        follower = threading.Thread(
            target=lambda: payloads.__setitem__("sql", planner.execute(sql))
        )
        leader.start()
        assert entered.wait(timeout=10)
        follower.start()
        deadline = time.monotonic() + 10
        while planner.singleflight.coalesced == coalesced_before:
            if time.monotonic() > deadline:
                break
            time.sleep(0.005)
        gate.set()
        leader.join(timeout=10)
        follower.join(timeout=10)
        assert not leader.is_alive() and not follower.is_alive()
        assert payloads["sql"]["coalesced"] is True
        assert payloads["named"]["query"] == "Qc1"
        assert payloads["sql"]["query"] == "sql"
        assert payloads["sql"]["answers"] == payloads["named"]["answers"]

    def test_hit_names_the_callers_spelling(self, planner, fresh_backend):
        named = planner.execute(
            planner.plan({"database": "demo", "mechanism": "PM", "epsilon": 0.7, "query": "Qc1"})
        )
        hits_before = planner.memo_hits
        sql = planner.execute(
            planner.plan({"database": "demo", "mechanism": "PM", "epsilon": 0.7, "sql": QC1_SQL})
        )
        assert planner.memo_hits - hits_before == 1
        assert (named["query"], sql["query"]) == ("Qc1", "sql")
        assert sql["answers"] == named["answers"]

    def test_planners_differing_in_seed_never_share(self, fresh_backend):
        request = {"database": "demo", "mechanism": "TM", "epsilon": 0.5, "query": "Qc1"}
        first, second = _demo_planner(SEED), _demo_planner(SEED + 1)
        served = [p.execute(p.plan(request)) for p in (first, second)]
        assert second.memo_hits == 0 and second.memo_misses == 1
        assert served[0]["answers"] != served[1]["answers"]
        for planner, payload in zip((first, second), served):
            offline = _offline(planner, planner.plan(request))
            assert payload["answers"] == [serialize_answer(a) for a in offline.answers]

    def test_private_dimensions_never_share(self, fresh_backend):
        request = {"database": "demo", "mechanism": "TM", "epsilon": 0.5, "query": "Qc1"}
        default, customer_only = _demo_planner(), _demo_planner(private_dimensions=["Customer"])
        assert default.database("demo").scenario != customer_only.database("demo").scenario
        served = [p.execute(p.plan(request)) for p in (default, customer_only)]
        assert customer_only.memo_hits == 0 and customer_only.memo_misses == 1
        for planner, payload in zip((default, customer_only), served):
            offline = _offline(planner, planner.plan(request))
            assert payload["answers"] == [serialize_answer(a) for a in offline.answers]

    def test_repeat_after_invalidate_misses(self, planner, fresh_backend):
        planned = planner.plan(
            {"database": "demo", "mechanism": "PM", "epsilon": 0.5, "query": "Qc2"}
        )
        first = planner.execute(planned)
        ExecutionEngine.for_database(planned.entry.database).invalidate()
        misses_before = planner.memo_misses
        again = planner.execute(planned)
        assert planner.memo_misses - misses_before == 1
        assert again["answers"] == first["answers"]

    def test_refusals_and_failures_are_refunded_and_never_stored(
        self, fresh_backend, monkeypatch
    ):
        planner = _demo_planner()
        original = planner._execute_star
        broken = {"Qc3"}

        def flaky(plan, stream):
            if plan.query_name in broken:
                raise QueryError("engine failure")
            return original(plan, stream)

        monkeypatch.setattr(planner, "_execute_star", flaky)
        server = QueryServer(planner, BudgetLedger(PrivacyBudget(2.0)), port=0, workers=2)
        with ServerThread(server):
            with ServingClient(port=server.port) as client:
                for mechanism, query, code in [
                    ("PM", "Qc3", "query_error"),
                    ("LS", "Qs2", "unsupported"),
                ] * 2:
                    with pytest.raises(ServingError) as info:
                        client.query("demo", mechanism, 0.5, query=query, analyst="ivan")
                    assert info.value.code == code
                assert client.budget("ivan")["spent_epsilon"] == pytest.approx(0.0)
                assert client.stats()["planner"]["memo"] == {"hits": 0, "misses": 4}
                broken.clear()  # the engine recovers: the request now executes
                answered = client.query("demo", "PM", 0.5, query="Qc3", analyst="ivan")
                again = client.query("demo", "PM", 0.5, query="Qc3", analyst="ivan")
                assert client.stats()["planner"]["memo"] == {"hits": 1, "misses": 5}
        assert again["answers"] == answered["answers"]

    def test_repeated_request_is_charged_every_time(self, planner, fresh_backend):
        server = QueryServer(planner, BudgetLedger(PrivacyBudget(1.0)), port=0, workers=2)
        with ServerThread(server):
            with ServingClient(port=server.port) as client:
                hits_before = client.stats()["planner"]["memo"]["hits"]
                served = [
                    client.query("demo", "PM", 0.2, query="Qc1", analyst="judy")
                    for _ in range(3)
                ]
                memo = client.stats()["planner"]["memo"]
                assert client.budget("judy")["spent_epsilon"] == pytest.approx(0.6)
        assert memo["hits"] - hits_before == 2
        assert [p["privacy"]["remaining_epsilon"] for p in served] == pytest.approx(
            [0.8, 0.6, 0.4]
        )
        assert len({json.dumps(p["answers"]) for p in served}) == 1

    def test_concurrent_repeats_count_every_lookup(self, planner, fresh_backend):
        """Engine threads share the memo and its counters: every execution
        (a single-flight leader) does exactly one lookup, and no answer
        depends on which thread stored it."""
        plans = [
            planner.plan(
                {"database": "demo", "mechanism": "PM", "epsilon": epsilon, "query": "Qc2"}
            )
            for epsilon in (0.25, 0.35, 0.45)
        ]
        executions_before = planner.singleflight.executions
        lookups_before = planner.memo_hits + planner.memo_misses
        answers = {index: set() for index in range(len(plans))}
        errors = []

        def hammer(offset):
            try:
                for step in range(60):
                    index = (offset + step) % len(plans)
                    payload = planner.execute(plans[index])
                    answers[index].add(json.dumps(payload["answers"]))
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(offset,)) for offset in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        executions = planner.singleflight.executions - executions_before
        assert planner.memo_hits + planner.memo_misses - lookups_before == executions
        assert all(len(blobs) == 1 for blobs in answers.values())

    def test_private_server_strips_error_fields_on_a_hit(self, planner, fresh_backend):
        request = {"database": "demo", "mechanism": "PM", "epsilon": 0.3, "query": "Qc1"}
        server = QueryServer(
            planner, BudgetLedger(PrivacyBudget(1.0)), port=0, accuracy_metadata=False
        )
        hits_before = planner.memo_hits
        with ServerThread(server):
            with ServingClient(port=server.port) as client:
                served = [
                    client.query("demo", "PM", 0.3, query="Qc1", analyst="kim")
                    for _ in range(2)
                ]
        assert planner.memo_hits - hits_before == 1
        for payload in served:
            assert "mean_relative_error" not in payload
            assert "median_relative_error" not in payload
        assert served[0]["answers"] == served[1]["answers"]
        # Stripping a caller's copy leaves the memoized payload whole.
        direct = planner.execute(planner.plan(request))
        assert "mean_relative_error" in direct and "median_relative_error" in direct


# ----------------------------------------------------------------------
# the TCP server
# ----------------------------------------------------------------------
@pytest.fixture()
def serving(planner):
    server = QueryServer(planner, BudgetLedger(PrivacyBudget(1.0)), port=0, workers=2)
    with ServerThread(server):
        yield server


class TestServerRoundTrip:
    def test_ping_and_stats(self, serving):
        with ServingClient(port=serving.port) as client:
            assert client.ping()["protocol"] == 1
            stats = client.stats()
            assert "demo" in stats["planner"]["databases"]
            assert "hit_rate" in stats["cache"]

    def test_query_round_trip_is_deterministic(self, serving):
        with ServingClient(port=serving.port) as client:
            first = client.query("demo", "PM", 0.3, query="Qc1", analyst="alice")
            second = client.query("demo", "PM", 0.3, query="Qc1", analyst="alice")
        assert first["answer"] == second["answer"]
        assert first["privacy"]["remaining_epsilon"] == pytest.approx(0.7)
        assert second["privacy"]["remaining_epsilon"] == pytest.approx(0.4)
        assert first["composition"] == "sequential"

    def test_budget_refusal_over_the_wire(self, serving):
        with ServingClient(port=serving.port) as client:
            client.query("demo", "PM", 0.6, query="Qc1", analyst="carol")
            with pytest.raises(ServingError) as info:
                client.query("demo", "PM", 0.6, query="Qc1", analyst="carol")
            assert info.value.code == "budget_exhausted"
            assert info.value.details["remaining_epsilon"] == pytest.approx(0.4)
            # The refused request spent nothing.
            assert client.budget("carol")["spent_epsilon"] == pytest.approx(0.6)

    def test_unsupported_query_is_refunded(self, serving):
        with ServingClient(port=serving.port) as client:
            with pytest.raises(ServingError) as info:
                client.query("demo", "LS", 0.5, query="Qs2", analyst="dave")
            assert info.value.code == "unsupported"
            assert client.budget("dave")["spent_epsilon"] == pytest.approx(0.0)

    def test_multi_trial_request_charges_trials_times_epsilon(self, serving):
        # Each trial is an independent release: sequential composition
        # across a request's own trials, so trials=3 at ε=0.2 costs 0.6.
        with ServingClient(port=serving.port) as client:
            result = client.query(
                "demo", "PM", 0.2, query="Qc1", trials=3, analyst="grace"
            )
            assert len(result["answers"]) == 3
            assert result["privacy"]["epsilon_charged"] == pytest.approx(0.6)
            assert client.budget("grace")["spent_epsilon"] == pytest.approx(0.6)
            # A fourth-trial-worth of headroom is gone: 3 more trials refuse.
            with pytest.raises(ServingError) as info:
                client.query("demo", "PM", 0.2, query="Qc1", trials=3, analyst="grace")
            assert info.value.code == "budget_exhausted"

    def test_grouped_sql_query_over_the_wire(self, serving):
        with ServingClient(port=serving.port) as client:
            result = client.query(
                "demo",
                "PM",
                0.5,
                sql=(
                    "SELECT count(*) FROM Lineorder, Customer "
                    "GROUP BY Customer.region"
                ),
                analyst="erin",
            )
        assert result["composition"] == "parallel"
        assert result["answer"]["keys"] == ["Customer.region"]
        assert len(result["answer"]["groups"]) == 5

    def test_kstar_query_over_the_wire(self, serving):
        with ServingClient(port=serving.port) as client:
            result = client.query("g1", "PM", 0.5, k=2, analyst="frank")
        assert isinstance(result["answer"], float)

    def test_register_over_the_wire_is_idempotent(self, serving):
        with ServingClient(port=serving.port) as client:
            info = client.register(
                "demo", "ssb", scale_factor=1.0, rows_per_scale_factor=2000, seed=5
            )
            assert info["already_registered"] is True

    def test_malformed_json_gets_structured_error(self, serving):
        with socket.create_connection(("127.0.0.1", serving.port), timeout=30) as sock:
            stream = sock.makefile("rwb")
            stream.write(b"this is not json\n")
            stream.flush()
            response = json.loads(stream.readline())
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"

    def test_unknown_op_gets_structured_error(self, serving):
        with ServingClient(port=serving.port) as client:
            with pytest.raises(ServingError) as info:
                client.request("explode")
            assert info.value.code == "unknown_op"

    def test_request_ids_are_echoed(self, serving):
        with socket.create_connection(("127.0.0.1", serving.port), timeout=30) as sock:
            stream = sock.makefile("rwb")
            stream.write(encode_message({"op": "ping", "id": "abc-123"}))
            stream.flush()
            response = json.loads(stream.readline())
        assert response["id"] == "abc-123"
        assert response["ok"] is True

    def test_oversized_request_line_gets_structured_error(self, serving):
        with socket.create_connection(("127.0.0.1", serving.port), timeout=30) as sock:
            stream = sock.makefile("rwb")
            # One line beyond the StreamReader's 64 KiB default limit.
            stream.write(b'{"op": "ping", "pad": "' + b"x" * 70_000 + b'"}\n')
            stream.flush()
            response = json.loads(stream.readline())
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"
        assert "too long" in response["error"]["message"]

    def test_private_server_omits_accuracy_metadata(self, planner):
        server = QueryServer(
            planner,
            BudgetLedger(PrivacyBudget(1.0)),
            port=0,
            accuracy_metadata=False,
        )
        with ServerThread(server):
            with ServingClient(port=server.port) as client:
                result = client.query("demo", "PM", 0.5, query="Qc1", analyst="heidi")
        assert "mean_relative_error" not in result
        assert "median_relative_error" not in result
        assert "answer" in result and "privacy" in result

    def test_shutdown_op_stops_the_server(self, planner):
        server = QueryServer(planner, BudgetLedger(PrivacyBudget(1.0)), port=0)
        handle = ServerThread(server).start()
        with ServingClient(port=server.port) as client:
            assert client.shutdown()["stopping"] is True
        handle._thread.join(timeout=10)
        assert not handle._thread.is_alive()


class TestServeCLIMode:
    def test_cli_serve_delegates_to_serving_main(self, monkeypatch):
        import repro.serving.server as server_module
        from repro.evaluation.cli import main as cli_main

        captured = {}

        def fake_main(argv):
            captured["argv"] = list(argv)
            return 0

        monkeypatch.setattr(server_module, "main", fake_main)
        assert cli_main(["--serve", "--port", "7777", "--seed", "42"]) == 0
        argv = captured["argv"]
        assert argv[argv.index("--port") + 1] == "7777"
        assert argv[argv.index("--seed") + 1] == "42"

    def test_serving_main_rejects_bad_register_spec(self, capsys):
        from repro.serving.server import main as serve_main

        assert serve_main(["--register", "not json", "--port", "0"]) == 2
        assert "--register" in capsys.readouterr().err

    def test_serving_main_rejects_bad_budget(self, capsys):
        from repro.serving.server import main as serve_main

        assert serve_main(["--analyst-epsilon", "-1", "--port", "0"]) == 2
        assert "budget" in capsys.readouterr().err
