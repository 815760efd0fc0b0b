"""Tests for the observability subsystem (:mod:`repro.obs`).

The contracts under test (see docs/OBSERVABILITY.md):

* the metrics registry aggregates counters / gauges / histograms behind one
  unified snapshot schema, and a fork-shared registry sees increments made
  in worker processes;
* request traces form one connected tree per request — through threads, the
  cache wire and fork workers alike — and tracing never changes an answer;
* every ``telemetry`` surface (cache backends, cache server, query server)
  exposes the same top-level shape;
* the slow-query log records exactly the requests over its threshold;
* ``python -m repro.obs.summarize`` renders per-stage breakdowns and the
  critical path from a trace file.
"""

import json
import multiprocessing
import socket

import pytest

from repro.db.cache import (
    LocalCacheBackend,
    RemoteCacheBackend,
    backend_scope,
)
from repro.db.cache.server import CacheServerThread
from repro.db.cache.wire import read_frame, write_frame
from repro.dp.accountant import PrivacyBudget
from repro.evaluation.experiments import ExperimentConfig  # noqa: F401 - breaks the
# parallel<->experiments import cycle: the experiments package must initialise
# before repro.evaluation.parallel is imported directly.
from repro.evaluation.parallel import TrialScheduler
from repro.obs import summarize
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRIC_CATALOG,
    UNIFIED_KEYS,
    MetricsRegistry,
    NullRegistry,
    active_registry,
    registry_scope,
    render_prometheus,
    unified_snapshot,
)
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import (
    Tracer,
    active_tracer,
    record_span,
    record_timed,
    resume_span,
    set_active_tracer,
    span,
    trace_scope,
    wire_context,
)
from repro.serving import (
    BudgetLedger,
    QueryPlanner,
    QueryServer,
    ServerThread,
    ServingClient,
)

SEED = 424242


@pytest.fixture(scope="module")
def planner():
    planner = QueryPlanner(seed=SEED)
    planner.register("demo", "ssb", scale_factor=1.0, rows_per_scale_factor=2000, seed=5)
    return planner


def _assert_unified(snapshot):
    assert tuple(snapshot.keys()) == UNIFIED_KEYS
    assert isinstance(snapshot["counters"], dict)
    assert isinstance(snapshot["gauges"], dict)
    assert isinstance(snapshot["histograms"], dict)
    assert isinstance(snapshot["subsystem"], dict)


# ----------------------------------------------------------------------
# the metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc()
        registry.counter("requests").inc(4)
        registry.gauge("depth").set(2.5)
        for value in (0.002, 0.004, 0.03):
            registry.histogram("latency").observe(value)
        snapshot = registry.snapshot()
        _assert_unified(snapshot)
        assert snapshot["counters"]["requests"] == 5
        assert snapshot["gauges"]["depth"] == 2.5
        summary = snapshot["histograms"]["latency"]
        assert summary["count"] == 3
        assert summary["sum_s"] == pytest.approx(0.036)
        assert 0.001 <= summary["p50_s"] <= 0.005

    def test_histogram_percentiles_order(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in [0.001] * 90 + [1.5] * 10:
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["p50_s"] <= summary["p95_s"] <= summary["p99_s"]
        assert summary["p99_s"] >= 1.0  # the slow tail lands in the 1.0–2.5 bucket

    def test_histogram_overflow_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        histogram.observe(99.0)  # beyond the largest bound
        summary = histogram.summary()
        assert summary["buckets"]["+Inf"] == 1
        assert summary["p50_s"] == DEFAULT_BUCKETS[-1]

    def test_instruments_are_memoized(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("y") is registry.histogram("y")

    def test_shared_registry_pre_creates_catalog(self):
        registry = MetricsRegistry(shared=True)
        snapshot = registry.snapshot()
        for name in METRIC_CATALOG["counters"]:
            assert snapshot["counters"][name] == 0
        for name in METRIC_CATALOG["histograms"]:
            assert snapshot["histograms"][name]["count"] == 0

    def test_shared_registry_aggregates_forked_increments(self):
        registry = MetricsRegistry(shared=True)
        counter_name = METRIC_CATALOG["counters"][0]
        histogram_name = METRIC_CATALOG["histograms"][0]
        registry.counter(counter_name).inc(2)

        context = multiprocessing.get_context("fork")
        process = context.Process(
            target=_fork_increment, args=(registry, counter_name, histogram_name)
        )
        process.start()
        process.join(timeout=30)
        assert process.exitcode == 0
        snapshot = registry.snapshot()
        assert snapshot["counters"][counter_name] == 7  # 2 parent + 5 child
        assert snapshot["histograms"][histogram_name]["count"] == 3

    def test_active_registry_default_and_scope(self):
        default = active_registry()
        assert isinstance(default, MetricsRegistry)
        installed = MetricsRegistry()
        with registry_scope(installed):
            assert active_registry() is installed
        assert active_registry() is default

    def test_null_registry_absorbs_everything(self):
        registry = NullRegistry()
        registry.counter("a").inc(100)
        registry.histogram("b").observe(1.0)
        snapshot = registry.snapshot()
        _assert_unified(snapshot)
        assert snapshot["counters"] == {}

    def test_render_prometheus_flattens_nested_snapshots(self):
        inner = unified_snapshot(counters={"hits": 3}, subsystem={"name": "cache"})
        outer = unified_snapshot(
            counters={"requests": 2},
            gauges={"depth": 1.5},
            histograms={"latency": MetricsRegistry().histogram("latency").summary()},
            subsystem={"cache": inner, "in_flight": 4, "degraded": False},
        )
        text = render_prometheus(outer, prefix="repro_serving")
        assert "repro_serving_requests 2" in text
        assert "repro_serving_depth 1.5" in text
        assert "repro_serving_cache_hits 3" in text  # nested snapshot recursed
        assert "repro_serving_in_flight 4" in text  # numeric subsystem field
        assert "degraded" not in text  # booleans stay JSON-side
        assert 'latency_bucket{le="+Inf"}' in text


def _fork_increment(registry, counter_name, histogram_name):
    registry.counter(counter_name).inc(5)
    for value in (0.001, 0.01, 0.1):
        registry.histogram(histogram_name).observe(value)


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_off_by_default_and_free(self):
        assert active_tracer() is None
        with span("anything") as current:
            assert current is None  # no allocation, no file

    def test_span_tree_lands_in_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with trace_scope(str(path)):
            with span("root", kind="test") as root:
                with span("child"):
                    record_timed("engine.mask", 0.25, region="mask")
        spans = summarize.load_spans(str(path))
        assert {record["name"] for record in spans} == {"root", "child", "engine.mask"}
        by_name = {record["name"]: record for record in spans}
        assert by_name["child"]["parent_id"] == by_name["root"]["span_id"]
        assert by_name["engine.mask"]["parent_id"] == by_name["child"]["span_id"]
        assert len({record["trace_id"] for record in spans}) == 1
        assert by_name["root"]["kind"] == "test"
        # Child wall-clock rolls up into the parent's stages.
        assert by_name["child"]["stages"]["engine.mask"] == pytest.approx(0.25)
        assert "child" in by_name["root"]["stages"]
        assert root.trace_id == by_name["root"]["trace_id"]

    def test_trace_scope_restores_previous_tracer(self, tmp_path):
        outer = Tracer(str(tmp_path / "outer.jsonl"))
        previous = set_active_tracer(outer)
        try:
            with trace_scope(str(tmp_path / "inner.jsonl")):
                assert active_tracer() is not outer
            assert active_tracer() is outer
        finally:
            set_active_tracer(previous)
            outer.close()

    def test_wire_context_and_resume_span_connect(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with trace_scope(str(path)):
            with span("client.op") as client_span:
                context = wire_context()
                assert context == {
                    "trace_id": client_span.trace_id,
                    "span_id": client_span.span_id,
                }
                # What the other side of a wire / fork boundary does:
                with resume_span(context, "server.op") as server_span:
                    assert server_span.trace_id == client_span.trace_id
                record_span("server.timed", context, 0.001, hit=True)
        spans = summarize.load_spans(str(path))
        assert summarize.orphan_spans(spans) == []
        assert len({record["trace_id"] for record in spans}) == 1

    def test_wire_context_none_when_not_tracing(self):
        assert wire_context() is None
        with resume_span(None, "ignored") as current:
            assert current is None


# ----------------------------------------------------------------------
# the slow-query log
# ----------------------------------------------------------------------
class TestSlowQueryLog:
    def test_threshold_filters(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(str(path), threshold_ms=50.0)
        assert log.record_if_slow(0.010, query="fast") is False
        assert log.record_if_slow(0.080, query="slow", epsilon=0.5) is True
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["query"] == "slow"
        assert lines[0]["epsilon"] == 0.5
        assert lines[0]["elapsed_ms"] == pytest.approx(80.0)
        assert log.stats()["recorded"] == 1

    def test_rejects_negative_threshold(self, tmp_path):
        with pytest.raises(ValueError):
            SlowQueryLog(str(tmp_path / "x.jsonl"), threshold_ms=-1.0)


# ----------------------------------------------------------------------
# the summarize CLI
# ----------------------------------------------------------------------
class TestSummarize:
    def _write_trace(self, path):
        with trace_scope(str(path)):
            with span("serve.request"):
                with span("serve.plan"):
                    pass
                with span("serve.execute"):
                    record_timed("engine.mask", 0.002)

    def test_stage_table_and_critical_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._write_trace(path)
        spans = summarize.load_spans(str(path))
        table = summarize.stage_table(spans)
        assert {row["name"] for row in table} >= {
            "serve.request", "serve.plan", "serve.execute", "engine.mask",
        }
        chain = summarize.critical_path(spans)
        assert [record["name"] for record in chain][:2] == [
            "serve.request", "serve.execute",
        ]

    def test_render_and_main(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        self._write_trace(path)
        assert summarize.main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "serve.request" in out
        assert "critical path" in out
        assert "orphan spans: 0" in out

    def test_main_rejects_missing_file(self, tmp_path, capsys):
        assert summarize.main([str(tmp_path / "nope.jsonl")]) == 2

    def test_malformed_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"name": "a", "trace_id": "t", "span_id": "s", '
                        '"parent_id": null, "elapsed_s": 0.1}\nnot json\n')
        assert len(summarize.load_spans(str(path))) == 1


# ----------------------------------------------------------------------
# unified-schema conformance across every stats surface
# ----------------------------------------------------------------------
class TestTelemetryConformance:
    def test_local_backend(self):
        backend = LocalCacheBackend(max_entries=8)
        backend.put("ns", "mask", "k", 1.0)
        backend.get("ns", "mask", "k")
        snapshot = backend.telemetry_snapshot()
        _assert_unified(snapshot)
        assert snapshot["counters"]["hits"] == 1
        assert snapshot["subsystem"]["backend"] == "local"

    def test_remote_backend_and_cache_server(self):
        with CacheServerThread(max_entries=64) as handle:
            backend = RemoteCacheBackend(
                host="127.0.0.1", port=handle.server.port, max_entries=8
            )
            try:
                backend.put("ns", "result", "k", 2.0)  # a write-through region
                snapshot = backend.telemetry_snapshot()
                _assert_unified(snapshot)
                assert snapshot["subsystem"]["backend"] == "remote"
                assert "breaker_state" in snapshot["subsystem"]
                server_snapshot = handle.server.telemetry_snapshot()
                _assert_unified(server_snapshot)
                assert server_snapshot["subsystem"]["name"] == "cache-server"
                assert server_snapshot["counters"]["puts"] >= 1
            finally:
                backend.close()

    def test_cache_server_telemetry_op_over_the_wire(self):
        with CacheServerThread(max_entries=64) as handle:
            with socket.create_connection(
                ("127.0.0.1", handle.server.port), timeout=30
            ) as sock:
                stream = sock.makefile("rwb")
                write_frame(stream, {"op": "telemetry"})
                header, _payload, _size = read_frame(stream)
        assert header["ok"] is True
        _assert_unified(header["telemetry"])
        assert header["prometheus"].startswith("# TYPE repro_cache_server_")

    def test_serving_telemetry_op(self, planner):
        server = QueryServer(planner, BudgetLedger(PrivacyBudget(5.0)), port=0, workers=2)
        with ServerThread(server):
            with ServingClient(port=server.port) as client:
                client.query("demo", "PM", 0.3, query="Qc1", analyst="alice")
                result = client.telemetry()
        snapshot = result["telemetry"]
        _assert_unified(snapshot)
        assert snapshot["counters"]["requests_served"] >= 1
        assert snapshot["counters"]["serving_requests_total"] >= 1
        assert snapshot["histograms"]["serving_request_seconds"]["count"] >= 1
        assert snapshot["subsystem"]["name"] == "serving"
        assert snapshot["subsystem"]["cache"]["subsystem"]["name"] == "cache"
        assert "repro_serving_requests_served" in result["prometheus"]

    def test_stats_op_remains_the_compat_shim(self, planner):
        server = QueryServer(planner, BudgetLedger(PrivacyBudget(1.0)), port=0, workers=2)
        with ServerThread(server):
            with ServingClient(port=server.port) as client:
                stats = client.stats()
        # The legacy shape survives for existing dashboards/scripts.
        assert set(stats) >= {"requests_served", "planner", "cache", "warming"}
        assert "hit_rate" in stats["cache"]

    def test_health_reports_version_and_overload_state(self, planner):
        server = QueryServer(planner, BudgetLedger(PrivacyBudget(1.0)), port=0, workers=2)
        with ServerThread(server):
            with ServingClient(port=server.port) as client:
                client.query("demo", "PM", 0.2, query="Qc1", analyst="h")
                health = client.health()
        from repro import __version__

        assert health["status"] == "ok"
        assert health["version"] == __version__
        assert health["uptime_s"] >= 0
        assert health["queue"]["overloaded"] is False
        assert health["queue"]["execution_ewma_s"] > 0
        assert "breaker" in health["cache"]


# ----------------------------------------------------------------------
# end-to-end traces
# ----------------------------------------------------------------------
class TestEndToEndTraces:
    def test_served_request_yields_connected_trace(self, planner, tmp_path):
        path = tmp_path / "trace.jsonl"
        # A fresh backend: an earlier test may have released this answer
        # into the active backend's memo, and a memo hit runs no trials.
        with backend_scope(LocalCacheBackend()), trace_scope(str(path)):
            server = QueryServer(
                planner, BudgetLedger(PrivacyBudget(5.0)), port=0, workers=2
            )
            with ServerThread(server):
                with ServingClient(port=server.port) as client:
                    client.query("demo", "PM", 0.3, query="Qc1", analyst="alice")
        spans = summarize.load_spans(str(path))
        names = {record["name"] for record in spans}
        assert {"serve.request", "serve.plan", "serve.execute", "mechanism.trials"} <= names
        assert summarize.orphan_spans(spans) == []
        assert len({record["trace_id"] for record in spans}) == 1
        root = [r for r in spans if r["name"] == "serve.request"][0]
        assert root["parent_id"] is None
        assert root["outcome"] == "ok"
        assert root["analyst"] == "alice"
        assert "serve.execute" in root["stages"]

    def test_memo_hit_executes_no_trials(self, planner, tmp_path):
        path = tmp_path / "trace.jsonl"
        with backend_scope(LocalCacheBackend()), trace_scope(str(path)):
            server = QueryServer(
                planner, BudgetLedger(PrivacyBudget(5.0)), port=0, workers=2
            )
            with ServerThread(server):
                with ServingClient(port=server.port) as client:
                    cold = client.query("demo", "PM", 0.3, query="Qc1", analyst="bob")
                    hit = client.query("demo", "PM", 0.3, query="Qc1", analyst="bob")
        assert hit["answers"] == cold["answers"]
        spans = summarize.load_spans(str(path))
        executes = sorted(
            (r for r in spans if r["name"] == "serve.execute"), key=lambda r: r["start_s"]
        )
        assert [r["memo_hit"] for r in executes] == [False, True]
        trial_parents = {r["parent_id"] for r in spans if r["name"] == "mechanism.trials"}
        assert executes[0]["span_id"] in trial_parents
        assert executes[1]["span_id"] not in trial_parents
        assert "mechanism.trials" not in executes[1].get("stages", {})
        assert summarize.orphan_spans(spans) == []

    def test_remote_cache_round_trip_joins_the_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        planner = QueryPlanner(seed=SEED)
        with CacheServerThread(max_entries=256) as handle:
            backend = RemoteCacheBackend(
                host="127.0.0.1", port=handle.server.port, max_entries=32
            )
            with backend_scope(backend):
                with trace_scope(str(path)):
                    server = QueryServer(
                        planner, BudgetLedger(PrivacyBudget(5.0)), port=0, workers=2
                    )
                    with ServerThread(server):
                        with ServingClient(port=server.port) as client:
                            client.register(
                                "demo", "ssb", scale_factor=1.0,
                                rows_per_scale_factor=2000, seed=5,
                            )
                            client.query("demo", "PM", 0.3, query="Qc1", analyst="a")
            backend.close()
        spans = summarize.load_spans(str(path))
        names = {record["name"] for record in spans}
        # Client-side round-trip spans and the server's own handling spans
        # both land in the file, connected into the request's one trace.
        assert "cache.remote.put" in names or "cache.remote.get" in names
        assert "cache_server.put" in names or "cache_server.get" in names
        request_traces = {
            r["trace_id"] for r in spans if r["name"] == "serve.request"
        }
        cache_traces = {
            r["trace_id"] for r in spans if r["name"].startswith("cache_server.")
        }
        assert cache_traces <= request_traces
        assert summarize.orphan_spans(spans) == []

    def test_fork_workers_join_the_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with trace_scope(str(path)):
            with span("evaluation.experiment", experiment="test"):
                scheduler = TrialScheduler(jobs=4)
                results = scheduler.map(_traced_cell_fn, list(range(8)))
        assert results == [value * value for value in range(8)]
        spans = summarize.load_spans(str(path))
        cells = [r for r in spans if r["name"] == "runner.cell"]
        assert len(cells) == 8
        roots = [r for r in spans if r["name"] == "evaluation.experiment"]
        assert len(roots) == 1
        assert {r["parent_id"] for r in cells} == {roots[0]["span_id"]}
        assert len({r["trace_id"] for r in spans}) == 1
        assert summarize.orphan_spans(spans) == []
        # The cells genuinely ran in other processes.
        assert any(r["pid"] != roots[0]["pid"] for r in cells)

    def test_tracing_does_not_change_answers(self, planner, tmp_path):
        def serve_one(analyst):
            # A fresh backend per pass: on a shared one the second pass
            # would be a memo hit returning the first pass's bytes.
            with backend_scope(LocalCacheBackend()):
                server = QueryServer(
                    planner, BudgetLedger(PrivacyBudget(5.0)), port=0, workers=2
                )
                with ServerThread(server):
                    with ServingClient(port=server.port) as client:
                        return client.query(
                            "demo", "PM", 0.3, query="Qc1", trials=3, analyst=analyst
                        )

        untraced = serve_one("alice")
        path = tmp_path / "trace.jsonl"
        with trace_scope(str(path)):
            traced = serve_one("alice")
        spans = summarize.load_spans(str(path))
        assert any(record["name"] == "mechanism.trials" for record in spans)
        assert traced["answers"] == untraced["answers"]
        assert traced["answer"] == untraced["answer"]


def _traced_cell_fn(value):
    with span("cell.body"):
        return value * value
