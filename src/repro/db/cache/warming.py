"""Background cache population (warm-ahead).

Cost-aware eviction decides what to *keep*; this module decides what to
*pre-compute*.  Execution paths that observe a cold exact answer record the
``(database, query)`` miss into a process-wide :class:`WarmingQueue`; a
:class:`WarmAheadWorker` later replays those queries through the ordinary
:class:`~repro.db.executor.QueryExecutor` — between requests on the serving
tier, or after each experiment in an opt-in batch mode — so the put-through
cache server (remote backend, optionally persisted) is populated before the
next analyst asks.

Replays happen at *query* level, not key level: wire keys are content
fingerprints and cannot be reversed into work, but re-executing the query
recreates every artefact (masks, contributions, cubes, the answer itself)
under exactly the keys any later request will look up.  Because every cached
value is a pure function of its key, a warmed entry is byte-identical to the
entry the miss would eventually have produced — warming changes *when* work
happens, never *what* is computed, so results stay byte-identical with
warming on or off (the parity suite pins this).  The queue is the only
warming path: it runs where the live databases are, and the cache server,
which never decodes keys, could not replay a miss itself.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Any, Optional

from repro.db.cache.fingerprints import query_fingerprint
from repro.obs.metrics import active_registry
from repro.obs.trace import span

__all__ = [
    "WarmAheadWorker",
    "WarmingQueue",
    "active_queue",
    "queue_scope",
    "record_query_miss",
    "set_active_queue",
]


class _Task:
    """One observed miss: a weakly-held database and the query to replay."""

    __slots__ = ("database_ref", "query", "misses", "order")

    def __init__(self, database, query, order: int):
        self.database_ref = weakref.ref(database)
        self.query = query
        self.misses = 1
        self.order = order  # first-seen sequence: the deterministic tie-break


class WarmingQueue:
    """Bounded, de-duplicated queue of observed exact-answer misses.

    Tasks are keyed by ``(database namespace, query fingerprint)``: the same
    query missing twice raises its miss count instead of queueing twice.
    Draining hands tasks out hottest-first (miss count descending, first-seen
    order as the tie-break), so a bounded warming budget goes to the queries
    analysts actually repeat.  When full, the *coldest* task is dropped to
    admit a new one — a fresh miss always gets a seat.
    """

    def __init__(self, max_tasks: int = 256):
        if max_tasks < 1:
            raise ValueError("max_tasks must be at least 1")
        self.max_tasks = int(max_tasks)
        self._tasks: dict[Any, _Task] = {}
        self._lock = threading.Lock()
        self._order = 0
        self.recorded = 0
        self.deduplicated = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    def record(self, database, query) -> bool:
        """Note that ``query`` missed on ``database``; returns whether the
        miss is now queued (``False`` only for unfingerprintable queries)."""
        fingerprint = query_fingerprint(query)
        if fingerprint is None:
            return False
        key = (database.cache_fingerprint(), fingerprint)
        with self._lock:
            self.recorded += 1
            task = self._tasks.get(key)
            if task is not None:
                task.misses += 1
                self.deduplicated += 1
                return True
            self._order += 1
            self._tasks[key] = _Task(database, query, self._order)
            if len(self._tasks) > self.max_tasks:
                # Drop the coldest resident: fewest misses, oldest first.
                # The incoming task has the newest order, so a fresh miss
                # always keeps its seat.
                coldest = min(
                    self._tasks, key=lambda k: (self._tasks[k].misses, self._tasks[k].order)
                )
                del self._tasks[coldest]
                self.dropped += 1
        return True

    def drain(self, max_tasks: Optional[int] = None) -> list[_Task]:
        """Remove and return up to ``max_tasks`` tasks, hottest first."""
        with self._lock:
            ordered = sorted(self._tasks.values(), key=lambda t: (-t.misses, t.order))
            take = ordered if max_tasks is None else ordered[: int(max_tasks)]
            for task in take:
                database = task.database_ref()
                key = (
                    (database.cache_fingerprint(), query_fingerprint(task.query))
                    if database is not None
                    else None
                )
                if key is not None:
                    self._tasks.pop(key, None)
            if max_tasks is None:
                self._tasks.clear()
        return take

    def requeue(self, tasks: "list[_Task]") -> None:
        """Put drained-but-unreplayed tasks back (a budget stop must not
        lose the misses it had no time for); miss counts merge on collision."""
        with self._lock:
            for task in tasks:
                database = task.database_ref()
                if database is None:
                    continue
                key = (database.cache_fingerprint(), query_fingerprint(task.query))
                existing = self._tasks.get(key)
                if existing is not None:
                    existing.misses += task.misses
                else:
                    self._tasks[key] = task

    def __len__(self) -> int:
        with self._lock:
            return len(self._tasks)

    def stats(self) -> dict:
        with self._lock:
            return {
                "pending": len(self._tasks),
                "recorded": self.recorded,
                "deduplicated": self.deduplicated,
                "dropped": self.dropped,
            }


class WarmAheadWorker:
    """Replays queued misses against the engine to pre-populate caches.

    Driven synchronously by whoever owns idle time: the serving tier calls
    :meth:`run_once` between requests, the evaluation CLI after each
    experiment.  There is no thread of its own — the *caller* decides when
    warming may consume cycles, which keeps warming strictly subordinate to
    foreground work.
    """

    def __init__(self, queue: WarmingQueue):
        self.queue = queue
        self.replayed = 0
        self.failed = 0
        self.skipped_dead = 0
        self.requeued_on_stop = 0
        self.spent_s = 0.0
        # Shutdown handshake: `_stop` tells a drain in progress to wind down
        # (finish the current replay, requeue the rest); `_idle` is set
        # whenever no drain is running, so stop() can join deterministically.
        self._stop = threading.Event()
        self._idle = threading.Event()
        self._idle.set()

    @property
    def stopped(self) -> bool:
        return self._stop.is_set()

    def run_once(
        self, max_tasks: Optional[int] = 8, budget_s: Optional[float] = None
    ) -> int:
        """Replay up to ``max_tasks`` queued misses (``budget_s`` caps the
        wall-clock spent); returns how many were replayed.  Returns 0
        immediately once :meth:`stop` has been called."""
        from repro.db.executor import QueryExecutor  # lazy: avoids a cycle

        if self._stop.is_set():
            return 0
        began = time.perf_counter()
        warmed = 0
        self._idle.clear()
        # Replays must not re-record themselves as misses (this thread only —
        # foreground threads keep recording while a replay runs).
        _SUPPRESS.active = True
        try:
            with span("warming.replay") as current:
                batch = self.queue.drain(max_tasks)
                for index, task in enumerate(batch):
                    if self._stop.is_set():
                        # Mid-drain stop: the replay that already started ran
                        # to completion (cache writes are atomic per entry);
                        # everything not yet replayed goes back on the queue
                        # so no observed miss is lost to the shutdown.
                        remainder = batch[index:]
                        self.queue.requeue(remainder)
                        self.requeued_on_stop += len(remainder)
                        break
                    if budget_s is not None and time.perf_counter() - began >= budget_s:
                        self.queue.requeue(batch[index:])
                        break
                    database = task.database_ref()
                    if database is None:
                        self.skipped_dead += 1
                        continue
                    try:
                        QueryExecutor(database).execute(task.query)
                        self.replayed += 1
                        warmed += 1
                    except Exception:
                        # A replay failure costs a future cache miss, nothing
                        # more; the foreground path will surface any real defect.
                        self.failed += 1
                if current is not None:
                    current.set(replayed=warmed)
        finally:
            _SUPPRESS.active = False
            self._idle.set()
        elapsed = time.perf_counter() - began
        self.spent_s += elapsed
        if warmed:
            registry = active_registry()
            registry.counter("warming_replayed_total").inc(warmed)
            registry.histogram("warming_replay_seconds").observe(elapsed)
        return warmed

    def stop(self, timeout: float = 10.0) -> None:
        """Deterministic shutdown: no further drains start, and a drain in
        progress finishes its current replay and requeues the remainder of
        its batch (:attr:`requeued_on_stop` counts them).

        Blocks until the in-progress drain (if any) has wound down.  Raises
        ``RuntimeError`` if it has not within ``timeout`` — the same loud
        contract ``ServerThread.stop`` honours — because a replay stuck in
        the engine would otherwise leak silently as a busy thread past
        shutdown.  ``stop`` is idempotent; a worker once stopped stays
        stopped (``run_once`` returns 0).
        """
        self._stop.set()
        if not self._idle.wait(timeout):
            raise RuntimeError(
                f"warm-ahead drain did not stop within {timeout}s; "
                "a replay is stuck in the engine"
            )

    def stats(self) -> dict:
        stats = self.queue.stats()
        stats.update(
            {
                "replayed": self.replayed,
                "failed": self.failed,
                "skipped_dead": self.skipped_dead,
                "requeued_on_stop": self.requeued_on_stop,
                "stopped": self._stop.is_set(),
                "spent_s": round(self.spent_s, 6),
            }
        )
        return stats


# ----------------------------------------------------------------------
# the process-wide active queue (mirrors the active-backend plumbing)
# ----------------------------------------------------------------------
_ACTIVE: Optional[WarmingQueue] = None
_SUPPRESS = threading.local()


def active_queue() -> Optional[WarmingQueue]:
    """The process-wide warming queue, or ``None`` when warming is off."""
    return _ACTIVE


def set_active_queue(queue: Optional[WarmingQueue]) -> Optional[WarmingQueue]:
    """Install (or, with ``None``, remove) the process-wide warming queue;
    returns the previous one."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, queue
    return previous


class queue_scope:
    """``with queue_scope(queue):`` — install a queue, restore on exit."""

    def __init__(self, queue: Optional[WarmingQueue]):
        self.queue = queue
        self._previous: Optional[WarmingQueue] = None

    def __enter__(self) -> Optional[WarmingQueue]:
        self._previous = set_active_queue(self.queue)
        return self.queue

    def __exit__(self, *_exc) -> None:
        set_active_queue(self._previous)


def record_query_miss(database, query) -> None:
    """Record an observed exact-answer miss into the active queue (no-op when
    warming is off).  Called by execution paths that just saw a cold query —
    cheap enough to sit on the hot path: one dict update behind a lock."""
    queue = _ACTIVE
    if queue is not None and not getattr(_SUPPRESS, "active", False):
        queue.record(database, query)
