"""Per-layer timing for the traced run.

Nothing here touches ``src/``: the traced run replaces each layer's public
functions with timing wrappers *from the outside*, before the code under test
starts working.  A function imported by name into another module is patched
where it is looked up as well (``parse_star_join_sql`` is called as
``repro.serving.planner.parse_star_join_sql``), so every call site is timed.

Each wrapped call records ``(start, duration, self)``: *self* time is the
call's duration minus the time of wrapped calls nested inside it on the same
thread, so layers never double count each other.  Starts are
``time.monotonic()``, a clock every process on the host shares, which lets the
benchmark keep only the calls that fell inside its measured window.

``METRICS`` is the per-layer catalogue: each metric with its unit and the
end-to-end metric (and workload) it should move.  ``summarize`` turns recorded
events into those numbers; a layer that does no work in a workload reports 0.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import os
import statistics
import sys
import threading
import time
from typing import Callable, Iterable, Optional

# name, unit, "moves" (end-to-end metric @ workload it should move)
METRICS: tuple[tuple[str, str, str], ...] = (
    ("protocol.encode_us_p50", "us", "latency_p50_ms, capacity_rps @ serve_repeat; ~0 elsewhere"),
    ("protocol.decode_us_p50", "us", "latency_p50_ms, capacity_rps @ serve_repeat; ~0 elsewhere"),
    ("server.queue_wait_ms_p99", "ms", "tail.latency_p99_ms @ all serve_*"),
    ("server.overload_refusals", "count", "tail.latency_p99_ms @ all serve_* (must stay 0)"),
    ("planner.plan_us_p50", "us", "latency_p50_ms @ serve_repeat"),
    ("planner.execute_ms_p50", "ms", "latency_p50_ms @ all serve_*"),
    ("planner.coalesced_frac", "ratio", "latency_p50_ms @ serve_repeat"),
    ("sql.parse_us_p50", "us", "latency_p50_ms @ serve_adhoc, serve_shared; none @ serve_repeat"),
    ("sql.parse_calls", "count", "latency_p50_ms @ serve_adhoc, serve_shared; 0 @ serve_repeat"),
    ("ledger.admit_us_p50", "us", "latency_p50_ms @ serve_repeat"),
    ("ledger.admit_us_p99", "us", "tail.latency_p99_ms @ serve_repeat"),
    ("journal.commit_us_p50", "us", "latency_p50_ms, capacity_rps @ serve_repeat; small @ serve_adhoc"),
    ("journal.commit_us_p99", "us", "tail.latency_p99_ms @ serve_repeat"),
    ("journal.commits_per_req", "count", "capacity_rps @ serve_repeat; none @ grid"),
    ("engine.self_ms_per_req", "ms", "latency_p50_ms @ serve_adhoc; capacity_rps @ grid (minor); ~0 @ serve_repeat"),
    ("engine.calls_per_req", "count", "latency_p50_ms @ serve_adhoc; capacity_rps @ grid"),
    ("engine.selection_mask_us_p50", "us", "latency_p50_ms @ serve_adhoc"),
    ("engine.contribution_us_p50", "us", "latency_p50_ms @ serve_adhoc"),
    ("engine.data_cube_ms_p50", "ms", "tail.latency_p99_ms @ serve_adhoc; capacity_rps @ grid"),
    ("executor.exact_ms_p50", "ms", "latency_p50_ms @ serve_adhoc"),
    ("cache.l1_hit_rate", "ratio", "latency_p50_ms @ serve_repeat (reads), serve_adhoc (writes)"),
    ("cache.l1_evictions", "count", "latency_p50_ms @ serve_adhoc"),
    ("cache.remote_get_us_p50", "us", "latency_p50_ms @ serve_shared only"),
    ("cache.remote_put_us_p50", "us", "latency_p50_ms @ serve_shared only"),
    ("cache.remote_hit_rate", "ratio", "latency_p50_ms @ serve_shared only"),
    ("cache.wire_kb_per_req", "KB", "latency_p50_ms, tail.latency_p99_ms @ serve_shared only"),
    ("cache.breaker_trips", "count", "tail.latency_p99_ms @ serve_shared (must stay 0)"),
    ("cacheserver.evictions", "count", "tail.latency_p99_ms @ serve_shared only"),
    ("cacheserver.bytes_stored_mb", "MB", "peak_rss_mb @ serve_shared only"),
    ("pm.answer_us_p50", "us", "capacity_rps @ grid; latency_p50_ms @ serve_repeat"),
    ("pma.perturb_us_p50", "us", "capacity_rps @ grid; latency_p50_ms @ serve_repeat"),
    ("r2t.answer_us_p50", "us", "capacity_rps @ grid; latency_p50_ms @ serve_*"),
    ("tm.answer_us_p50", "us", "capacity_rps @ grid; latency_p50_ms @ serve_*"),
    ("ls.answer_us_p50", "us", "capacity_rps @ grid; latency_p50_ms @ serve_*"),
    ("noise.draws_per_req", "count", "latency_p50_ms @ serve_repeat"),
    ("noise.laplace_us_p50", "us", "latency_p50_ms @ serve_repeat"),
    ("kstar.count_s_total", "s", "capacity_rps @ grid only"),
    ("kstar.mechanism_s_total", "s", "capacity_rps @ grid only"),
    ("datagen.ssb_s_total", "s", "capacity_rps @ grid; setup_s @ serve_*"),
    ("datagen.graph_s_total", "s", "capacity_rps @ grid only"),
    ("scheduler.cells", "count", "capacity_rps @ grid"),
    ("scheduler.worker_busy_frac", "ratio", "capacity_rps @ grid"),
    ("runner.trials", "count", "capacity_rps @ grid"),
    ("tail.latency_p99_ms", "ms", "the tail users see: untraced open-loop requests (serve_*), trials (grid)"),
    ("tail.samples", "count", "sample count behind tail.latency_p99_ms (at least 1000)"),
    ("loadgen.late_p99_ms", "ms", "validity: how late the load generator sent (serve_*)"),
    ("trace.unattributed_frac", "ratio", "validity: request time no wrapped layer claims"),
    ("trace.overhead_pct", "%", "validity: traced vs untraced cost of the same work"),
)

#: Layer of each recorded event name, for the per-layer self-time table.
LAYER_OF = {
    "protocol.encode": "serving.protocol",
    "protocol.decode": "serving.protocol",
    "server.queue_wait": "serving.server (queue wait)",
    "planner.plan": "serving.planner",
    "planner.execute": "serving.planner",
    "sql.parse": "db.sql",
    "ledger.admit": "serving.ledger",
    "ledger.settle": "serving.ledger",
    "journal.commit": "serving.durable",
    "executor.exact": "db.executor",
    "cache.remote_get": "db.cache (wire)",
    "cache.remote_put": "db.cache (wire)",
    "pm.answer": "core (PM)",
    "pma.perturb": "core (PMA)",
    "r2t.answer": "baselines",
    "tm.answer": "baselines",
    "ls.answer": "baselines",
    "noise.laplace": "dp.noise",
    "kstar.count": "graph",
    "kstar.mechanism": "graph",
    "datagen.ssb": "datagen",
    "datagen.graph": "datagen",
    "runner.evaluate": "evaluation.runner",
    "scheduler.cell": "evaluation.parallel",
}

ENGINE_METHODS = (
    "fact_mask",
    "selection_mask",
    "selected_count",
    "fan_out",
    "max_fan_out",
    "measure_values",
    "contribution_per_key",
    "sorted_contributions",
    "truncated_sum_from_sorted",
    "data_cube",
    "count_answer_via_cube",
    "cached_result",
    "store_result",
)


def layer_of(name: str) -> str:
    if name.startswith("engine."):
        return "db.engine"
    return LAYER_OF.get(name, name)


class Recorder:
    """Collects ``(start, duration, self)`` per event name, thread-safely."""

    def __init__(self) -> None:
        self.events: dict[str, list[tuple[float, float, float]]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        # Per-request state that follows asyncio tasks (the queue wait is
        # the gap between a request's plan and its ledger admission).
        self.plan_end: contextvars.ContextVar[Optional[float]] = contextvars.ContextVar(
            "perfbench_plan_end", default=None
        )

    def record(self, name: str, start: float, duration: float, self_time: float) -> None:
        with self._lock:
            self.events.setdefault(name, []).append((start, duration, self_time))

    def drain(self) -> dict[str, list[tuple[float, float, float]]]:
        with self._lock:
            events, self.events = self.events, {}
        return events

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """A timed stand-in for ``fn``; ``after(result, start)`` may record more."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            began = time.monotonic()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.record(name, began, elapsed, elapsed - children[0])
            if after is not None:
                after(result, began)
            return result

        return timed


def patch_method(recorder: Recorder, cls: type, attr: str, name: str, after=None) -> None:
    raw = inspect.getattr_static(cls, attr)
    if isinstance(raw, (staticmethod, classmethod)):
        setattr(cls, attr, type(raw)(recorder.wrap(name, raw.__func__, after)))
    else:
        setattr(cls, attr, recorder.wrap(name, raw, after))


def patch_function(recorder: Recorder, module, attr: str, name: str, after=None) -> None:
    """Wrap ``module.attr`` and every loaded ``repro`` module's alias of it."""
    original = getattr(module, attr)
    wrapped = recorder.wrap(name, original, after)
    for loaded_name, loaded in list(sys.modules.items()):
        if loaded is None or not loaded_name.startswith("repro"):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapped)


# ----------------------------------------------------------------------
# what each workload's processes wrap
# ----------------------------------------------------------------------
def install_compute(recorder: Recorder) -> None:
    """Layers shared by the grid and the query server: engine, executor,
    mechanisms, noise, k-star, datagen and the trial runner."""
    import repro.baselines.local_sensitivity as ls
    import repro.baselines.r2t as r2t
    import repro.baselines.truncation as tm
    import repro.core.pma as pma
    import repro.core.predicate_mechanism as pm
    import repro.datagen.ssb as ssb
    import repro.datagen.tpch as tpch
    import repro.db.engine as engine
    import repro.db.executor as executor
    import repro.dp.noise as noise
    import repro.evaluation.runner as runner
    import repro.graph.dp_kstar as dp_kstar
    import repro.graph.generators as generators
    import repro.graph.kstar as kstar

    for method in ENGINE_METHODS:
        patch_method(recorder, engine.ExecutionEngine, method, f"engine.{method}")
    patch_method(recorder, executor.QueryExecutor, "execute", "executor.exact")
    patch_method(recorder, pm.PredicateMechanism, "answer_value", "pm.answer")
    patch_method(recorder, pma.PredicateMechanismForAttribute, "perturb", "pma.perturb")
    patch_method(recorder, r2t.RaceToTheTop, "answer_value", "r2t.answer")
    patch_method(recorder, tm.TruncationMechanism, "answer_value", "tm.answer")
    patch_method(recorder, ls.LocalSensitivityMechanism, "answer_value", "ls.answer")
    for cls in (dp_kstar.KStarPM, dp_kstar.KStarR2T, dp_kstar.KStarTM):
        patch_method(recorder, cls, "answer_value", "kstar.mechanism")
    patch_method(recorder, ssb.SSBGenerator, "build", "datagen.ssb")
    patch_method(recorder, tpch.SnowflakeGenerator, "build", "datagen.ssb")
    patch_function(recorder, noise, "laplace_noise", "noise.laplace")
    patch_function(recorder, kstar, "kstar_count", "kstar.count")
    for generator in ("powerlaw_graph", "deezer_like", "amazon_like"):
        patch_function(recorder, generators, generator, "datagen.graph")

    def count_trials(result, began):
        recorder.record("runner.trials", began, float(len(result.times)), 0.0)

    patch_function(recorder, runner, "evaluate_mechanism", "runner.evaluate", count_trials)
    patch_function(recorder, runner, "evaluate_kstar_mechanism", "runner.evaluate", count_trials)


def install_serving(recorder: Recorder) -> None:
    """Query-server layers on top of :func:`install_compute`."""
    install_compute(recorder)
    import repro.db.cache.remote as remote
    import repro.db.sql as sql
    import repro.serving.durable as durable
    import repro.serving.ledger as ledger
    import repro.serving.planner as planner
    import repro.serving.server as server

    patch_function(recorder, server, "encode_message", "protocol.encode")
    patch_function(recorder, server, "decode_line", "protocol.decode")
    patch_function(recorder, sql, "parse_star_join_sql", "sql.parse")

    def mark_plan_end(_result, _began):
        recorder.plan_end.set(time.monotonic())

    def mark_coalesced(payload, began):
        recorder.record("planner.coalesced", began, float(bool(payload.get("coalesced"))), 0.0)

    patch_method(recorder, planner.QueryPlanner, "plan", "planner.plan", mark_plan_end)
    patch_method(recorder, planner.QueryPlanner, "execute", "planner.execute", mark_coalesced)

    admit = ledger.BudgetLedger.admit

    @functools.wraps(admit)
    def admit_after_queue(self, *args, **kwargs):
        planned_at = recorder.plan_end.get()
        if planned_at is not None:
            now = time.monotonic()
            recorder.record("server.queue_wait", planned_at, now - planned_at, now - planned_at)
            recorder.plan_end.set(None)
        return timed_admit(self, *args, **kwargs)

    timed_admit = recorder.wrap("ledger.admit", admit)
    ledger.BudgetLedger.admit = admit_after_queue
    patch_method(recorder, ledger.BudgetLedger, "settle", "ledger.settle")
    patch_method(recorder, durable.LedgerJournal, "record_charge", "journal.commit")
    patch_method(recorder, durable.LedgerJournal, "settle", "journal.commit")
    patch_method(recorder, durable.LedgerJournal, "void", "journal.commit")

    # A remote-cache round trip is one write_frame followed by one read_frame
    # on the same thread; time it from the write, keyed by the request's op.
    write_frame, read_frame = remote.write_frame, remote.read_frame
    pending = threading.local()

    def timed_write(file, header, payload=b""):
        pending.op = header.get("op")
        pending.began = time.monotonic()
        pending.start = time.perf_counter()
        sent = write_frame(file, header, payload)
        recorder.record("cache.wire_bytes", pending.began, float(sent), 0.0)
        return sent

    def timed_read(file):
        response = read_frame(file)
        start = getattr(pending, "start", None)
        if start is not None and pending.op in ("get", "put"):
            elapsed = time.perf_counter() - start
            recorder.record(f"cache.remote_{pending.op}", pending.began, elapsed, elapsed)
            stack = recorder._stack()
            if stack:  # the enclosing engine call does not own the wire time
                stack[-1][0] += elapsed
        recorder.record("cache.wire_bytes", time.monotonic(), float(response[2]), 0.0)
        pending.start = None
        return response

    remote.write_frame, remote.read_frame = timed_write, timed_read


def install_grid_workers(recorder: Recorder, directory: str) -> None:
    """Time each scheduler cell and flush the worker's events after it.

    Pool workers fork from the grid process and inherit the wrappers; they
    append their events to ``layers-<pid>.jsonl`` after every cell, so
    nothing is lost when the pool shuts its workers down.
    """
    import repro.evaluation.parallel as parallel
    from repro.db.cache import active_backend

    parent = os.getpid()

    def flush_after_cell(_result, _began):
        if os.getpid() != parent:
            dump(recorder, os.path.join(directory, f"layers-{os.getpid()}.jsonl"), active_backend())

    for attr in ("run_star_cell", "run_kstar_cell"):
        patch_function(recorder, parallel, attr, "scheduler.cell", flush_after_cell)


def cache_counters(backend) -> dict:
    stats = backend.stats()
    return {"hits": stats.hits, "misses": stats.misses, "evictions": stats.evictions}


def dump(recorder: Recorder, path: str, backend=None) -> None:
    """Append the drained events (and the backend's counters) as one line."""
    record = {"pid": os.getpid(), "events": recorder.drain()}
    if backend is not None:
        record["cache"] = cache_counters(backend)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


def load(paths: Iterable[str]) -> tuple[dict, dict]:
    """Merge dumped events; cache counters keep each process's last line."""
    events: dict[str, list] = {}
    caches: dict[int, dict] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                for name, rows in record["events"].items():
                    events.setdefault(name, []).extend(tuple(row) for row in rows)
                if "cache" in record:
                    caches[record["pid"]] = record["cache"]
    return events, caches


# ----------------------------------------------------------------------
# turning events into metrics
# ----------------------------------------------------------------------
def _window(rows, window):
    if window is None:
        return list(rows)
    low, high = window
    return [row for row in rows if low <= row[0] <= high]


def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile; 0.0 for no samples (no work done)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarize(events: dict, window=None, requests: int = 0) -> dict[str, float]:
    """Per-layer metric values (see ``METRICS``) from recorded events.

    ``window`` keeps calls that started inside ``(low, high)`` (monotonic
    seconds); datagen totals ignore it, since they are set-up work.
    ``requests`` is the denominator of the ``*_per_req`` metrics.
    """

    def rows(name, windowed=True):
        return _window(events.get(name, ()), window if windowed else None)

    def durations(name, scale, windowed=True):
        return [row[1] * scale for row in rows(name, windowed)]

    def p50(name, scale):
        return percentile(durations(name, scale), 0.5)

    def p99(name, scale):
        return percentile(durations(name, scale), 0.99)

    per_req = max(requests, 1)
    engine_rows = [row for name in events if name.startswith("engine.") for row in rows(name)]
    coalesced = durations("planner.coalesced", 1.0)
    journal = rows("journal.commit")
    return {
        "protocol.encode_us_p50": p50("protocol.encode", 1e6),
        "protocol.decode_us_p50": p50("protocol.decode", 1e6),
        "server.queue_wait_ms_p99": p99("server.queue_wait", 1e3),
        "planner.plan_us_p50": percentile([row[2] * 1e6 for row in rows("planner.plan")], 0.5),
        "planner.execute_ms_p50": p50("planner.execute", 1e3),
        "planner.coalesced_frac": statistics.fmean(coalesced) if coalesced else 0.0,
        "sql.parse_us_p50": p50("sql.parse", 1e6),
        "sql.parse_calls": float(len(rows("sql.parse"))),
        "ledger.admit_us_p50": percentile([row[2] * 1e6 for row in rows("ledger.admit")], 0.5),
        "ledger.admit_us_p99": percentile([row[2] * 1e6 for row in rows("ledger.admit")], 0.99),
        "journal.commit_us_p50": percentile([row[1] * 1e6 for row in journal], 0.5),
        "journal.commit_us_p99": percentile([row[1] * 1e6 for row in journal], 0.99),
        "journal.commits_per_req": len(journal) / per_req,
        "engine.self_ms_per_req": sum(row[2] for row in engine_rows) * 1e3 / per_req,
        "engine.calls_per_req": len(engine_rows) / per_req,
        "engine.selection_mask_us_p50": p50("engine.selection_mask", 1e6),
        "engine.contribution_us_p50": p50("engine.contribution_per_key", 1e6),
        "engine.data_cube_ms_p50": p50("engine.data_cube", 1e3),
        "executor.exact_ms_p50": p50("executor.exact", 1e3),
        "cache.remote_get_us_p50": p50("cache.remote_get", 1e6),
        "cache.remote_put_us_p50": p50("cache.remote_put", 1e6),
        "cache.wire_kb_per_req": sum(durations("cache.wire_bytes", 1.0)) / 1024.0 / per_req,
        "pm.answer_us_p50": p50("pm.answer", 1e6),
        "pma.perturb_us_p50": p50("pma.perturb", 1e6),
        "r2t.answer_us_p50": p50("r2t.answer", 1e6),
        "tm.answer_us_p50": p50("tm.answer", 1e6),
        "ls.answer_us_p50": p50("ls.answer", 1e6),
        "noise.draws_per_req": len(rows("noise.laplace")) / per_req,
        "noise.laplace_us_p50": p50("noise.laplace", 1e6),
        "kstar.count_s_total": sum(durations("kstar.count", 1.0)),
        "kstar.mechanism_s_total": sum(durations("kstar.mechanism", 1.0)),
        "datagen.ssb_s_total": sum(durations("datagen.ssb", 1.0, windowed=False)),
        "datagen.graph_s_total": sum(durations("datagen.graph", 1.0, windowed=False)),
        "scheduler.cells": float(len(rows("scheduler.cell"))),
        "runner.trials": sum(durations("runner.trials", 1.0)),
    }


def self_time_table(events: dict, window=None) -> dict[str, tuple[float, int]]:
    """Total self seconds and call count per layer, largest first."""
    totals: dict[str, list] = {}
    for name, rows in events.items():
        if name in ("planner.coalesced", "runner.trials", "cache.wire_bytes"):
            continue
        if name.startswith("datagen."):
            continue  # set-up work, outside the measured window
        kept = _window(rows, window)
        entry = totals.setdefault(layer_of(name), [0.0, 0])
        entry[0] += sum(row[2] for row in kept)
        entry[1] += len(kept)
    return dict(sorted(((k, (v[0], v[1])) for k, v in totals.items()), key=lambda kv: -kv[1][0]))
