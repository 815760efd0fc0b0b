"""Demo (and CI smoke test) of the observability subsystem.

Serves a small grid of queries twice — once untraced, once with request
tracing and a slow-query log switched on, each pass from an empty cache so
that neither is answered from the other's memo of released answers — and
asserts the contracts docs/OBSERVABILITY.md promises:

* every served answer is byte-identical with telemetry on and off;
* one traced request produces one connected JSONL trace whose spans cover
  serve → plan → execute → mechanism trials (and engine kernels on cold
  runs), with no orphan spans;
* ``python -m repro.obs.summarize`` renders a per-stage latency table and
  the critical path from the trace file;
* the ``telemetry`` op returns the unified counters/gauges/histograms
  snapshot plus Prometheus exposition text;
* the slow-query log records per-stage timings for requests over the
  threshold (0 ms here, so every request qualifies).

Exits non-zero if any step misbehaves, which is what lets CI use it as the
observability smoke.

Run with::

    PYTHONPATH=src python examples/observability_demo.py
"""

import json
import tempfile
from pathlib import Path

from repro.db.cache import LocalCacheBackend, backend_scope
from repro.dp.accountant import PrivacyBudget
from repro.obs import summarize
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import trace_scope
from repro.serving import (
    BudgetLedger,
    QueryPlanner,
    QueryServer,
    ServerThread,
    ServingClient,
)

#: The small serving grid: (mechanism, query, epsilon).
GRID = [
    ("PM", "Qc1", 0.3),
    ("PM", "Qc3", 0.2),
    ("R2T", "Qs2", 0.4),
]


def serve_grid(planner, slow_query_log=None) -> list[dict]:
    """Serve every grid cell on a fresh server; returns the payloads."""
    server = QueryServer(
        planner,
        BudgetLedger(PrivacyBudget(10.0)),
        port=0,
        workers=2,
        slow_query_log=slow_query_log,
    )
    payloads = []
    with ServerThread(server):
        with ServingClient(port=server.port) as client:
            for mechanism, query, epsilon in GRID:
                payloads.append(
                    client.query("demo", mechanism, epsilon, query=query, analyst="ci")
                )
            telemetry = client.telemetry()
    return payloads, telemetry


def main() -> int:
    planner = QueryPlanner(seed=7)
    planner.register("demo", "ssb", scale_factor=1.0, rows_per_scale_factor=4000, seed=11)

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.jsonl"
        slow_path = Path(tmp) / "slow.jsonl"

        with backend_scope(LocalCacheBackend()):
            untraced, _ = serve_grid(planner)
        print(f"served {len(untraced)} untraced request(s)")

        # Same grid again with tracing and the slow-query log on (threshold
        # 0 ms: every request records, so the log's stage breakdown is
        # exercised deterministically).
        slow_log = SlowQueryLog(str(slow_path), threshold_ms=0.0)
        with backend_scope(LocalCacheBackend()), trace_scope(str(trace_path)):
            traced, telemetry = serve_grid(planner, slow_query_log=slow_log)

        # 1. Telemetry never changes an answer.
        for before, after in zip(untraced, traced):
            assert before["answer"] == after["answer"], "tracing changed an answer"
            assert before.get("answers") == after.get("answers"), "tracing changed bytes"
        print("answers byte-identical with tracing on and off")

        # 2. The trace is connected and covers every serving stage.
        spans = summarize.load_spans(str(trace_path))
        names = {record["name"] for record in spans}
        for stage in ("serve.request", "serve.plan", "serve.execute", "mechanism.trials"):
            assert stage in names, f"stage {stage!r} missing from the trace"
        orphans = summarize.orphan_spans(spans)
        assert not orphans, f"orphan spans: {orphans}"
        roots = [r for r in spans if r["name"] == "serve.request"]
        assert len(roots) == len(GRID), "expected one root span per request"
        print(f"trace: {len(spans)} span(s), {len(roots)} request trace(s), 0 orphans")

        # 3. The summarize CLI renders all stages and the critical path.
        assert summarize.main([str(trace_path)]) == 0
        rendered = summarize.render(spans, str(trace_path))
        for stage in ("serve.request", "serve.plan", "serve.execute"):
            assert stage in rendered, f"summarize lost stage {stage!r}"
        assert "critical path" in rendered

        # 4. The telemetry op exposes the unified snapshot + Prometheus text.
        snapshot = telemetry["telemetry"]
        assert tuple(snapshot.keys()) == ("counters", "gauges", "histograms", "subsystem")
        assert snapshot["counters"]["serving_requests_total"] >= len(GRID)
        assert snapshot["histograms"]["serving_request_seconds"]["count"] >= len(GRID)
        assert "repro_serving_serving_requests_total" in telemetry["prometheus"]
        print(
            "telemetry op: "
            f"{snapshot['counters']['serving_requests_total']} requests, "
            f"p95 {snapshot['histograms']['serving_request_seconds']['p95_s'] * 1000:.1f} ms"
        )

        # 5. The slow-query log carries trace ids and per-stage timings.
        records = [
            json.loads(line) for line in slow_path.read_text().splitlines() if line
        ]
        assert len(records) == len(GRID), "every request should cross the 0ms threshold"
        trace_ids = {r["trace_id"] for r in records}
        assert trace_ids <= {r["trace_id"] for r in spans}, "slow log lost its trace link"
        assert all("serve.execute" in r["stages_ms"] for r in records)
        print(f"slow-query log: {len(records)} record(s) with per-stage timings")

    print("observability demo OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
