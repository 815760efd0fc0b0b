"""Batched, process-parallel evaluation of experiment cells.

The experiment drivers answer every (mechanism, query, ε) cell over repeated
trials.  With the shared :class:`~repro.db.engine.ExecutionEngine` the
per-trial query work is cheap, so the harness bottleneck is the serial cell
loop itself.  This module fans cells out over a ``ProcessPoolExecutor``:

* :class:`TrialScheduler` maps a picklable cell function over a cell list
  and returns results **in input order** — parallelism never reorders rows.
* Determinism comes from the seeding scheme, not from scheduling: each cell
  carries its full label, and the cell function derives the cell's
  :class:`~numpy.random.SeedSequence` with
  :func:`~repro.evaluation.experiments.common.cell_stream` — a pure function
  of ``(master seed, label)``.  All trials of a cell run inside one
  :func:`~repro.evaluation.runner.evaluate_mechanism` call from generators
  split off that sequence, so ``jobs=1`` and ``jobs=N`` produce identical
  numbers.
* Workers warm up their own databases and engine caches once per database
  and reuse them across every cell of that database:
  :func:`resolve_database` memoizes ``(builder, args)`` per process.  On
  platforms whose process start method is ``fork`` (Linux, the CI platform)
  workers inherit, through copy-on-write memory, whatever the parent had
  built by the time the pool forked: with a transient per-experiment
  scheduler that is the experiment's freshly warmed database and engine
  caches; with the run-wide session pool (which forks during the *first*
  experiment's map) it covers the first experiment only, and later
  experiments' databases are rebuilt once per worker — sharing their
  *cached artefacts* across processes is what ``--cache-backend remote``
  (with ``--cache-path``, an embedded cache server for the run) is for.
* One pool can serve a whole CLI run: :func:`evaluation_session` installs a
  run-wide cache backend (see :mod:`repro.db.cache`) and a *persistent*
  :class:`TrialScheduler` that every driver picks up through
  :func:`scheduler_for`, so ``repro.evaluation.cli`` with several experiments
  forks exactly one worker pool instead of one per experiment.  Under the
  remote backend the workers of that one pool keep exchanging selection
  masks, cubes and exact answers with each other (and with the parent's
  per-experiment warm-up) through the cache server for the entire run.

Cell functions must be importable module-level callables (the pool pickles
them by qualified name); drivers bind their configuration with
``functools.partial``.
"""

from __future__ import annotations

import functools
import pickle
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.datagen.distributions import scipy_stats
from repro.db.cache import make_backend, set_active_backend
from repro.db.engine import ExecutionEngine
from repro.db.executor import QueryExecutor
from repro.evaluation.experiments.common import ExperimentConfig, cell_stream
from repro.obs.metrics import MetricsRegistry, set_active_registry
from repro.obs.trace import (
    Tracer,
    active_tracer,
    resume_span,
    set_active_tracer,
    wire_context,
)
from repro.evaluation.runner import (
    EvaluationResult,
    evaluate_kstar_mechanism,
    evaluate_mechanism,
    make_kstar_mechanism,
    make_star_mechanism,
)
from repro.graph.kstar import kstar_count

__all__ = [
    "TrialScheduler",
    "StarCell",
    "KStarCell",
    "run_star_cell",
    "run_kstar_cell",
    "resolve_database",
    "clear_worker_cache",
    "evaluation_session",
    "scheduler_for",
    "active_scheduler",
]


# ----------------------------------------------------------------------
# per-process database / warm-engine cache
# ----------------------------------------------------------------------
#: Databases (and anything else a cell function wants to pay for once per
#: process) keyed by the builder's qualified name and its pickled arguments.
#: Under the ``fork`` start method a pre-populated parent cache is inherited
#: by every worker, so the parent can warm it before the pool is created.
#: Bounded like ``common._DATABASE_CACHE`` (oldest entry evicted) so a
#: many-database sweep — figure7 alone builds 12 instances — cannot pin
#: every instance it ever touched for the life of the process.
_WORKER_CACHE: dict = {}
_WORKER_CACHE_MAX = 8


def clear_worker_cache() -> None:
    """Drop this process's memoized databases (frees memory between suites)."""
    _WORKER_CACHE.clear()


def resolve_database(builder: Callable, args: tuple):
    """Build (or reuse) the database described by ``(builder, args)``.

    The result is memoized per process and its
    :class:`~repro.db.engine.ExecutionEngine` is attached on first build, so
    all cells of the same database share one set of selection/cube caches —
    each worker pays them once.

    With mapped storage (``ExperimentConfig.storage == "mapped"``) the
    builder resolves to a read-only attachment of the instance's on-disk
    manifest rather than re-generating arrays: the driver spills the instance
    before scheduling, every fork worker attaches the same files, and the
    fact table's pages are shared through the OS page cache instead of being
    duplicated per process (see ``docs/STORAGE.md``).
    """
    key = (builder.__module__, builder.__qualname__, pickle.dumps(args))
    database = _WORKER_CACHE.get(key)
    if database is None:
        database = builder(*args)
        if hasattr(database, "fact"):  # star/snowflake databases have engines
            ExecutionEngine.for_database(database)
        while len(_WORKER_CACHE) >= _WORKER_CACHE_MAX:
            _WORKER_CACHE.pop(next(iter(_WORKER_CACHE)))
        _WORKER_CACHE[key] = database
    return database


# ----------------------------------------------------------------------
# cell descriptions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StarCell:
    """One (mechanism, query, ε) cell of a star-join experiment.

    Everything is picklable and declarative: the query and database are
    described by module-level builder callables plus positional arguments,
    resolved inside the worker; ``stream`` is the full cell label the
    per-cell seed stream is derived from.
    """

    mechanism: str
    epsilon: float
    query_builder: Callable
    query_args: tuple
    database_builder: Callable
    database_args: tuple
    stream: tuple
    mechanism_kwargs: tuple = ()


@dataclass(frozen=True)
class KStarCell:
    """One (mechanism, query, ε) cell of a k-star (graph) experiment."""

    mechanism: str
    epsilon: float
    query_builder: Callable  # called with the resolved graph
    database_builder: Callable
    database_args: tuple
    stream: tuple
    mechanism_kwargs: tuple = ()


def run_star_cell(config: ExperimentConfig, cell: StarCell) -> EvaluationResult:
    """Evaluate one star-join cell (importable worker entry point)."""
    database = resolve_database(cell.database_builder, cell.database_args)
    query = cell.query_builder(*cell.query_args)
    mechanism = make_star_mechanism(
        cell.mechanism,
        cell.epsilon,
        scenario=config.scenario,
        **dict(cell.mechanism_kwargs),
    )
    # Engine-cached by query fingerprint: computed once per (database, query)
    # per process, shared by every mechanism and ε of the cell's query.
    exact = QueryExecutor(database).execute(query)
    return evaluate_mechanism(
        mechanism,
        database,
        query,
        trials=config.trials,
        rng=cell_stream(config.seed, *cell.stream),
        exact_answer=exact,
    )


def run_kstar_cell(config: ExperimentConfig, cell: KStarCell) -> EvaluationResult:
    """Evaluate one k-star cell (importable worker entry point)."""
    graph = resolve_database(cell.database_builder, cell.database_args)
    query = cell.query_builder(graph)
    mechanism = make_kstar_mechanism(
        cell.mechanism, cell.epsilon, **dict(cell.mechanism_kwargs)
    )
    exact = kstar_count(graph, query)  # O(1) after the graph's first count
    return evaluate_kstar_mechanism(
        mechanism,
        graph,
        query,
        trials=config.trials,
        rng=cell_stream(config.seed, *cell.stream),
        exact_answer=exact,
    )


def _run_traced_cell(fn: Callable, context: Optional[dict], cell: Any):
    """Worker-side wrapper re-parenting a cell under the driver's span.

    ``context`` is the parent's :func:`wire_context`; the fork-inherited
    module-global tracer writes the worker's spans into the same JSONL
    file, so the merged trace stays connected across the pool boundary.
    Module-level so the pool can pickle it by qualified name.
    """
    with resume_span(context, "runner.cell", kind=type(cell).__name__) as current:
        result = fn(cell)
        if current is not None:
            mechanism = getattr(cell, "mechanism", None)
            if mechanism is not None:
                current.set(mechanism=mechanism, epsilon=getattr(cell, "epsilon", None))
        return result


# ----------------------------------------------------------------------
# the scheduler
# ----------------------------------------------------------------------
def _fork_context():
    # ``fork`` lets workers inherit the parent's already-built databases,
    # warm engine caches and the active cache backend; fall back to the
    # platform default elsewhere.
    try:
        return get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return None


class TrialScheduler:
    """Maps cell functions over worker processes, preserving input order.

    ``jobs=1`` (the default) runs every cell in-process — byte-for-byte the
    serial behaviour, with no pool or pickling involved.  ``jobs>1`` fans
    cells out over a ``ProcessPoolExecutor``; chunks keep cells of the same
    database together (drivers emit them contiguously) without starving load
    balancing.

    ``persistent=False`` (the default for ad-hoc use) creates a pool per
    :meth:`map` call and tears it down after, exactly the pre-session
    behaviour.  ``persistent=True`` — what :func:`evaluation_session`
    installs — creates the pool lazily on first use and keeps it (and the
    workers' memoized databases) alive across every ``map`` of the run until
    :meth:`close`.  Scheduling never affects results either way: determinism
    comes from the per-cell seed streams.
    """

    #: Process-wide count of worker pools ever created (tests and benchmarks
    #: assert on deltas of this to pin the one-pool-per-run property).
    pools_created: int = 0

    def __init__(self, jobs: int = 1, persistent: bool = False):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self.persistent = persistent
        self._pool: Optional[ProcessPoolExecutor] = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            TrialScheduler.pools_created += 1
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=_fork_context()
            )
        return self._pool

    def map(self, fn: Callable[[Any], Any], cells: Sequence[Any]) -> list[Any]:
        """Apply ``fn`` to every cell; results come back in input order.

        An interrupt (``KeyboardInterrupt`` / ``SystemExit``) while cells are
        in flight force-terminates the pool instead of waiting for queued
        work, so Ctrl-C on a long sweep leaves no orphaned workers behind.
        """
        cells = list(cells)
        jobs = min(self.jobs, len(cells))
        if jobs <= 1:
            return [fn(cell) for cell in cells]
        if active_tracer() is not None:
            # Ship the current span's identity with every cell so worker
            # spans re-parent under it (contextvars do not cross fork).
            # Only when tracing: the untraced pool path is unchanged.
            fn = functools.partial(_run_traced_cell, fn, wire_context())
        chunksize = max(1, len(cells) // (self.jobs * 4))
        if self.persistent:
            pool = self._ensure_pool()
            try:
                return list(pool.map(fn, cells, chunksize=chunksize))
            except (KeyboardInterrupt, SystemExit):
                self.terminate()
                raise
        TrialScheduler.pools_created += 1
        pool = ProcessPoolExecutor(max_workers=jobs, mp_context=_fork_context())
        try:
            return list(pool.map(fn, cells, chunksize=chunksize))
        except (KeyboardInterrupt, SystemExit):
            self._terminate_pool(pool)
            raise
        finally:
            pool.shutdown(wait=True)

    def close(self) -> None:
        """Shut down the persistent pool (no-op when none was created)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def terminate(self) -> None:
        """Forcefully stop the persistent pool (the interrupt path).

        Unlike :meth:`close` this does not wait for queued cells: pending
        futures are cancelled and the worker processes are terminated and
        joined, so an interrupted run (SIGINT on the CLI, a killed serve
        loop) cannot strand workers.  Safe to call when no pool exists, and
        the scheduler remains usable — the next ``map`` forks a fresh pool.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            self._terminate_pool(pool)

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        processes = list(getattr(pool, "_processes", {}).values())
        manager = getattr(pool, "_executor_manager_thread", None)
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5)
        # The executor's manager thread reaps the same workers; until it has
        # recorded their exit codes, is_alive() may still report True.
        if manager is not None:
            manager.join(timeout=5)

    def __enter__(self) -> "TrialScheduler":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# the run-wide session
# ----------------------------------------------------------------------
#: The scheduler serving the current evaluation session, if one is active.
_ACTIVE_SCHEDULER: Optional[TrialScheduler] = None


def active_scheduler() -> Optional[TrialScheduler]:
    """The session's run-wide scheduler, or ``None`` outside a session."""
    return _ACTIVE_SCHEDULER


def scheduler_for(config: ExperimentConfig) -> TrialScheduler:
    """The scheduler a driver should map its cells over.

    Inside an :func:`evaluation_session` this is the session's single
    persistent scheduler — every experiment of the run shares its pool.
    Outside a session (a driver called directly, e.g. from a notebook or a
    test) it is a transient per-call scheduler with the pre-session
    pool-per-``map`` behaviour, so drivers remain usable standalone.
    """
    if _ACTIVE_SCHEDULER is not None:
        return _ACTIVE_SCHEDULER
    return TrialScheduler(config.jobs)


@contextmanager
def evaluation_session(config: ExperimentConfig) -> Iterator[TrialScheduler]:
    """Run-wide scheduling and caching for one CLI invocation.

    Installs, for the duration of the ``with`` block:

    * the configured cache backend (``config.cache_backend`` /
      ``config.cache_size``) as the process-wide active backend — created
      *before* any pool forks, so a remote backend's server address (or
      embedded server) and counters are inherited by every worker;
    * one persistent :class:`TrialScheduler` that all drivers reached through
      :func:`scheduler_for` share — ``repro.evaluation.cli`` with any number
      of experiments creates exactly one worker pool;
    * a run-wide :class:`~repro.obs.metrics.MetricsRegistry` (fork-shared
      with ``jobs > 1``, so worker increments aggregate into the parent's
      snapshots) and, with ``config.trace_path``, a run-wide tracer whose
      JSONL file collects spans from every process of the run.

    With ``jobs > 1`` it also imports the skewed-data samplers' scipy
    (:func:`~repro.datagen.distributions.scipy_stats`) before the pool can
    fork, so workers inherit it instead of each paying the ~0.5 s import
    inside an experiment.

    Teardown order matters and is the reverse: the pool is closed first (no
    worker may touch the cache server afterwards), then the backend is
    closed (stopping a remote backend's embedded server), then the
    previously active backend is restored.  On SIGINT/``SystemExit`` the pool is
    *terminated* instead — queued cells are cancelled and workers are killed
    and joined — so an interrupted run never strands worker processes.
    Sessions may nest; the inner session simply shadows the outer one's
    scheduler and backend until it exits.
    """
    global _ACTIVE_SCHEDULER
    backend = make_backend(
        config.cache_backend,
        config.cache_size,
        url=config.cache_url,
        path=config.cache_path,
        policy=config.cache_policy,
        max_bytes=config.cache_max_bytes,
        replicas=getattr(config, "cache_replicas", 1),
    )
    previous_backend = set_active_backend(backend)
    # Opt-in warm-ahead: the queue is installed before the pool forks so the
    # parent records its own misses; the CLI drains it between experiments.
    previous_queue = None
    if config.warm_ahead:
        from repro.db.cache.warming import WarmingQueue, set_active_queue

        previous_queue = set_active_queue(WarmingQueue())
    # Telemetry, also pre-fork: with jobs > 1 the registry's catalog
    # instruments are backed by fork-inherited shared memory, so worker
    # increments land in the parent's snapshot; the tracer module global is
    # likewise inherited, collecting the whole pool's spans in one file.
    previous_registry = set_active_registry(MetricsRegistry(shared=config.jobs > 1))
    if config.jobs > 1:
        scipy_stats()  # for the workers to inherit (see the docstring)
    tracer = Tracer(config.trace_path) if config.trace_path else None
    previous_tracer = set_active_tracer(tracer) if tracer is not None else None
    previous_scheduler = _ACTIVE_SCHEDULER
    scheduler = TrialScheduler(config.jobs, persistent=True)
    _ACTIVE_SCHEDULER = scheduler
    interrupted = False
    try:
        yield scheduler
    except (KeyboardInterrupt, SystemExit):
        # Ctrl-C on a CLI run (or a killed serve loop): don't wait for the
        # queued cells — cancel them and terminate the workers so the
        # interrupt leaves no orphaned processes behind.
        interrupted = True
        raise
    finally:
        _ACTIVE_SCHEDULER = previous_scheduler
        if interrupted:
            scheduler.terminate()
        else:
            scheduler.close()
        close = getattr(backend, "close", None)
        if close is not None:
            close()
        set_active_backend(previous_backend)
        if tracer is not None:
            set_active_tracer(previous_tracer)
            tracer.close()
        set_active_registry(previous_registry)
        if config.warm_ahead:
            from repro.db.cache.warming import set_active_queue

            set_active_queue(previous_queue)
