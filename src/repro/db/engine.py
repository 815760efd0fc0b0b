"""Vectorized, cache-aware execution engine for star-join workloads.

The evaluation harness answers every (mechanism, query, ε) combination over
repeated trials, so the same star-join selections, fan-out statistics and
data cubes are recomputed hundreds of times per experiment.  The
:class:`ExecutionEngine` is the shared layer that removes that redundancy: it
serves, per database instance,

* interned predicate fingerprints → fact-row selection masks (the semi-join
  results);
* per-dimension foreign-key codes and fan-out vectors (the statistics the
  LS / TM / R2T baselines are calibrated on);
* measure arrays (the unified accessor both the executor and the workload
  data cube draw from);
* per-key contribution vectors together with their sorted/prefix-summed form,
  so truncation mechanisms can evaluate every candidate threshold in
  ``O(log n)`` instead of re-scanning the selection;
* memoized exact query answers and data cubes;
* the query planner's memo of released answers (``release``).

The engine owns no cache storage.  Every artefact above is read and written
through a :class:`~repro.db.cache.CacheBackend` (see :mod:`repro.db.cache`
and ``docs/CACHE.md``) under the database's content-derived namespace, so the
same engine code runs against in-process storage (the default) or a
cache server shared across workers and runs (``--cache-backend remote``) — the backend is
the seam, the engine only decides *what* is worth caching and how to compute
it on a miss.

All cached arrays are returned with ``writeable=False`` so accidental
mutation by a caller fails loudly instead of silently corrupting every later
read.  The engine assumes the underlying :class:`StarDatabase` is immutable
(the whole code base treats tables as frozen after construction); if a
database is ever mutated in place, call :meth:`invalidate`.

Engines are shared per database through :meth:`ExecutionEngine.for_database`,
which is what makes the caching effective across mechanisms, ε values and
trials without threading an engine handle through every call site.
"""

from __future__ import annotations

import time
import weakref
from collections import namedtuple
from typing import Any, Hashable, Optional, Sequence, Union

import numpy as np

from repro.db.cache import (
    CacheBackend,
    CacheStats,
    LocalCacheBackend,
    active_backend,
    measure_fingerprint,
    predicate_fingerprint,
    query_fingerprint,
    selection_fingerprint,
)
from repro.db.database import StarDatabase
from repro.db.predicates import ConjunctionPredicate, Predicate
from repro.db.query import AggregateKind, Measure, StarJoinQuery
from repro.db.storage.base import DEFAULT_CHUNK_ROWS, iter_chunks
from repro.exceptions import QueryError
from repro.obs.metrics import active_registry
from repro.obs.trace import add_to_span, record_timed

__all__ = ["ExecutionEngine", "predicate_fingerprint", "selection_fingerprint", "query_fingerprint"]


_CubeAxis = namedtuple("_CubeAxis", ["table", "attribute", "domain"])

#: Data cubes larger than this fall back to the semi-join plan.
_MAX_CUBE_CELLS = 1 << 21


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


#: Engines shared per database instance (weak keys: an engine dies with its db).
_SHARED_ENGINES: "weakref.WeakKeyDictionary[StarDatabase, ExecutionEngine]" = (
    weakref.WeakKeyDictionary()
)


def _release_engine_storage(engine: "ExecutionEngine") -> None:
    """Reclaim a dead database's in-process cache storage.

    Registered as a finalizer by :meth:`ExecutionEngine.for_database`: the
    pre-backend engine freed its caches when its database was garbage
    collected (weak-keyed registry), and a process-global backend must
    reproduce that bound or a run sweeping many databases would pin every
    instance's masks and cubes until namespace eviction.  ``release`` (not
    ``clear``) so the remote backend's cache server keeps its entries — another
    worker's copy of the same logical database may still be live.

    Takes the engine (which only references its database weakly, so this
    cannot resurrect it) rather than a namespace string: ``invalidate()``
    rebinds the namespace after a mutation, and releasing a captured
    creation-time namespace would leave the post-mutation entries pinned.
    """
    try:
        engine.backend.release(engine.namespace)
    except Exception:  # pragma: no cover - interpreter-shutdown GC
        pass

#: Sentinel: route cache traffic to the process-wide active backend,
#: re-resolved on every access (see ``for_database``).
_ACTIVE_BACKEND = "active"


class ExecutionEngine:
    """Per-database execution layer over a pluggable cache backend.

    Parameters
    ----------
    database:
        The instance to execute against.
    max_mask_entries:
        LRU bound of the private backend created when ``backend`` is omitted.
    backend:
        Where cached artefacts live.  ``None`` (direct construction) creates
        a private :class:`~repro.db.cache.LocalCacheBackend` — a fully
        isolated engine, as tests and ablations expect.  The string
        ``"active"`` makes the engine resolve
        :func:`repro.db.cache.active_backend` dynamically on every access;
        :meth:`for_database` uses this so installing a run-wide backend
        (e.g. the remote one) takes effect for every shared engine at once,
        including engines that forked workers inherited.
    chunk_rows:
        Row-chunk size of the streaming kernels (masks, fan-out, measures,
        contributions, cubes).  ``None`` (the default) resolves automatically:
        a mapped fact table streams in :data:`~repro.db.storage.DEFAULT_CHUNK_ROWS`
        chunks so kernels never materialise a whole fact column, an in-memory
        fact table is read whole (chunking buys nothing there).  Every kernel
        is bit-exact for every chunk size — see ``docs/STORAGE.md`` and the
        chunk-sweep tests in ``tests/test_storage.py``.
    """

    def __init__(
        self,
        database: StarDatabase,
        max_mask_entries: int = 192,
        backend: Union[CacheBackend, str, None] = None,
        chunk_rows: Optional[int] = None,
    ):
        # Weak on purpose: the shared-engine registry maps database -> engine,
        # and a strong engine -> database edge would close the value -> key
        # cycle that keeps a WeakKeyDictionary entry alive forever — no
        # database obtained through ``for_database`` could ever be freed.
        # Every caller that uses an engine necessarily holds its database.
        self._database_ref = weakref.ref(database)
        if backend is None:
            backend = LocalCacheBackend(max_mask_entries)
        self._backend_ref = backend
        self._namespace = database.cache_fingerprint()
        if chunk_rows is None and database.storage_kind == "mapped":
            chunk_rows = DEFAULT_CHUNK_ROWS
        self._chunk_rows = chunk_rows

    @property
    def database(self) -> StarDatabase:
        database = self._database_ref()
        if database is None:  # pragma: no cover - misuse guard
            raise ReferenceError(
                "the engine's database has been garbage-collected; keep a "
                "reference to the database for as long as its engine is used"
            )
        return database

    @property
    def backend(self) -> CacheBackend:
        """The cache backend currently serving this engine."""
        if self._backend_ref is _ACTIVE_BACKEND:
            return active_backend()
        return self._backend_ref

    @property
    def namespace(self) -> str:
        """The content-derived namespace this engine's keys live under."""
        return self._namespace

    @property
    def chunk_rows(self) -> Optional[int]:
        """Row-chunk size of the streaming kernels (``None`` = whole-array)."""
        return self._chunk_rows

    def _get(self, region: str, key: Hashable) -> Any:
        # Every cache lookup in the system funnels through here, so this is
        # the one instrumentation point for cache-outcome telemetry: the
        # process registry counts hits/misses, and the current trace span
        # (if a request is being traced) accumulates its own outcome tally.
        value = self.backend.get(self._namespace, region, key)
        if value is not None:
            active_registry().counter("engine_cache_hits_total").inc()
            add_to_span("cache_hits")
        else:
            active_registry().counter("engine_cache_misses_total").inc()
            add_to_span("cache_misses")
        return value

    def _put(self, region: str, key: Hashable, value: Any, cost: Optional[float] = None) -> None:
        """Store a kernel artefact, with the wall-clock its computation took.

        The measured recompute cost doubles as a ready-made trace span: when
        a request is being traced, each kernel computation shows up as
        ``engine.<region>`` without any extra clock reads.
        """
        if cost is not None:
            record_timed(f"engine.{region}", cost, region=region)
        self._store(region, key, value, cost)

    def _store(self, region: str, key: Hashable, value: Any, cost: Optional[float]) -> None:
        """Write through to the backend.

        The cost is eviction-steering metadata only — a backend that predates
        the cost channel (or a test double) is fed through the old four-arg
        signature, and values are never affected either way.
        """
        active_registry().counter("engine_cache_puts_total").inc()
        if cost is None:
            self.backend.put(self._namespace, region, key, value)
            return
        try:
            self.backend.put(self._namespace, region, key, value, cost)
        except TypeError:
            self.backend.put(self._namespace, region, key, value)

    # ------------------------------------------------------------------
    @classmethod
    def for_database(cls, database: StarDatabase) -> "ExecutionEngine":
        """The shared engine of ``database`` (created on first request).

        Every :class:`~repro.db.executor.QueryExecutor` built without an
        explicit engine goes through here, which is what makes selections,
        statistics and exact answers shared across mechanisms and trials.
        Shared engines route to the process-wide active cache backend.
        """
        engine = _SHARED_ENGINES.get(database)
        if engine is None:
            engine = cls(database, backend=_ACTIVE_BACKEND)
            _SHARED_ENGINES[database] = engine
            weakref.finalize(database, _release_engine_storage, engine)
        return engine

    def invalidate(self) -> None:
        """Drop every cache entry (required after an in-place database mutation)
        and reset the backend's hit/miss/eviction counters.

        The namespace is recomputed from the mutated content, so entries
        another engine (or another process, on the remote backend) filed
        under the old content can never be served for the new one — and the
        old namespace is cleared outright so stale cubes and memoized answers
        do not linger in storage either.

        The counter reset applies to the whole serving backend (counters are
        backend-global, not per namespace), so invalidating one engine that
        routes to the run-wide backend zeroes the run's statistics.  That is
        deliberate: mutation + invalidation is an exceptional event, and
        hit rates mixing pre- and post-invalidation traffic would mislead.
        """
        backend = self.backend
        backend.clear(self._namespace)
        self._namespace = self.database.cache_fingerprint(refresh=True)
        backend.clear(self._namespace)
        backend.reset_stats()

    def stats(self) -> CacheStats:
        """The serving backend's cache counters (hits / misses / evictions)."""
        return self.backend.stats()

    # ------------------------------------------------------------------
    # selections
    # ------------------------------------------------------------------
    def fact_mask(self, predicate: Predicate) -> np.ndarray:
        """Cached boolean fact-row mask of a single predicate (read-only)."""
        fingerprint = predicate_fingerprint(predicate)
        if fingerprint is None:
            return self.database.fact_mask_for_predicate(predicate, self._chunk_rows)
        mask = self._get("predicate_mask", fingerprint)
        if mask is None:
            began = time.perf_counter()
            mask = _freeze(
                self.database.fact_mask_for_predicate(predicate, self._chunk_rows)
            )
            self._put("predicate_mask", fingerprint, mask, time.perf_counter() - began)
        return mask

    def selection_mask(self, predicates: ConjunctionPredicate) -> np.ndarray:
        """Cached boolean fact-row mask of a conjunction Φ (read-only)."""
        fingerprint = selection_fingerprint(predicates)
        if fingerprint is not None:
            cached = self._get("selection_mask", fingerprint)
            if cached is not None:
                return cached
        began = time.perf_counter()
        mask: Optional[np.ndarray] = None
        for predicate in predicates:
            predicate_mask = self.fact_mask(predicate)
            if mask is None:
                mask = predicate_mask.copy()
            else:
                mask &= predicate_mask
        if mask is None:
            mask = np.ones(self.database.num_fact_rows, dtype=bool)
        mask = _freeze(mask)
        if fingerprint is not None:
            self._put("selection_mask", fingerprint, mask, time.perf_counter() - began)
        return mask

    def selected_count(self, predicates: ConjunctionPredicate) -> int:
        return int(self.selection_mask(predicates).sum())

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def fan_out(self, dimension_name: str) -> np.ndarray:
        """Cached unfiltered fan-out vector of a direct dimension (read-only)."""
        counts = self._get("fan_out", dimension_name)
        if counts is None:
            began = time.perf_counter()
            counts = _freeze(
                self.database.fan_out(dimension_name, chunk_rows=self._chunk_rows)
            )
            self._put("fan_out", dimension_name, counts, time.perf_counter() - began)
        return counts

    def max_fan_out(self, dimension_name: str) -> int:
        value = self._get("max_fan_out", dimension_name)
        if value is None:
            began = time.perf_counter()
            counts = self.fan_out(dimension_name)
            value = int(counts.max()) if counts.size else 0
            self._put("max_fan_out", dimension_name, value, time.perf_counter() - began)
        return value

    def measure_values(self, measure: Union[Measure, str]) -> np.ndarray:
        """The measure expression over every fact row, cached (read-only).

        Accepts either a :class:`~repro.db.query.Measure` or a bare column
        name; both resolve through the same path, so cube-based and
        executor-based SUM answers are computed from the same array.
        """
        if isinstance(measure, str):
            measure = Measure(measure)
        fingerprint = measure_fingerprint(measure)
        values = self._get("measure", fingerprint)
        if values is None:
            began = time.perf_counter()
            fact = self.database.fact
            if self._chunk_rows is None:
                values = np.asarray(fact.codes(measure.column), dtype=np.float64)
                if measure.subtract is not None:
                    values = values - np.asarray(
                        fact.codes(measure.subtract), dtype=np.float64
                    )
            else:
                # Stream the source column(s); the float64 cast and the
                # subtraction are elementwise, so chunked assembly is
                # bit-identical to the whole-array expression.
                values = np.empty(fact.num_rows, dtype=np.float64)
                for start, stop in iter_chunks(fact.num_rows, self._chunk_rows):
                    chunk = np.asarray(
                        fact.read_chunk(measure.column, start, stop), dtype=np.float64
                    )
                    if measure.subtract is not None:
                        chunk = chunk - np.asarray(
                            fact.read_chunk(measure.subtract, start, stop),
                            dtype=np.float64,
                        )
                    values[start:stop] = chunk
            values = _freeze(values)
            self._put("measure", fingerprint, values, time.perf_counter() - began)
        return values

    # ------------------------------------------------------------------
    # per-key contributions (truncation mechanisms)
    # ------------------------------------------------------------------
    def _contribution_key(
        self,
        predicates: ConjunctionPredicate,
        dimension_name: str,
        kind: AggregateKind,
        measure: Optional[Union[Measure, str]],
    ) -> Optional[Hashable]:
        selection = selection_fingerprint(predicates)
        if selection is None:
            return None
        measure_key = None if kind is AggregateKind.COUNT else measure_fingerprint(
            Measure(measure) if isinstance(measure, str) else measure
        )
        return (selection, dimension_name, kind.value, measure_key)

    def contribution_per_key(
        self,
        predicates: ConjunctionPredicate,
        dimension_name: str,
        kind: AggregateKind = AggregateKind.COUNT,
        measure: Optional[Union[Measure, str]] = None,
    ) -> np.ndarray:
        """Per-dimension-key contribution to the selected aggregate (read-only)."""
        if kind is not AggregateKind.COUNT and measure is None:
            raise QueryError("per-key SUM contributions require a measure")
        key = self._contribution_key(predicates, dimension_name, kind, measure)
        if key is not None:
            cached = self._get("contribution", key)
            if cached is not None:
                return cached
        began = time.perf_counter()
        mask = self.selection_mask(predicates)
        database = self.database
        fk_column = database.schema.foreign_key_for(dimension_name).fact_column
        dim_rows = database.dimension(dimension_name).num_rows
        if kind is AggregateKind.COUNT:
            # Chunk-wise integer bincount partials; integer addition is
            # exact, so any chunking matches the one-pass bincount bit for
            # bit (and ``astype`` at the end matches the old float cast).
            counts = database.fan_out(
                dimension_name, fact_mask=mask, chunk_rows=self._chunk_rows
            )
            per_key = counts.astype(np.float64)
        else:
            # The chunked gather preserves selection order, so this single
            # weighted bincount sees exactly the rows (in exactly the order)
            # the whole-column ``codes[mask]`` expression produced.
            codes = database.selected_fact_codes(fk_column, mask, self._chunk_rows)
            weights = self.measure_values(measure)[mask]
            per_key = np.bincount(codes, weights=weights, minlength=dim_rows)
        per_key = _freeze(per_key)
        if key is not None:
            self._put("contribution", key, per_key, time.perf_counter() - began)
        return per_key

    def sorted_contributions(
        self,
        predicates: ConjunctionPredicate,
        dimension_name: str,
        kind: AggregateKind = AggregateKind.COUNT,
        measure: Optional[Union[Measure, str]] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted per-key contributions, exclusive prefix sums)``.

        With these two arrays a truncated aggregate at any threshold τ is
        ``prefix[i] + τ · (n − i)`` where ``i = searchsorted(sorted, τ)`` —
        evaluating a whole geometric ladder of thresholds costs one sort
        instead of one full scan per candidate.
        """
        key = self._contribution_key(predicates, dimension_name, kind, measure)
        if key is not None:
            cached = self._get("sorted_contribution", key)
            if cached is not None:
                return cached
        began = time.perf_counter()
        per_key = self.contribution_per_key(predicates, dimension_name, kind, measure)
        ordered = np.sort(per_key)
        prefix = np.concatenate([[0.0], np.cumsum(ordered)])
        pair = (_freeze(ordered), _freeze(prefix))
        if key is not None:
            self._put("sorted_contribution", key, pair, time.perf_counter() - began)
        return pair

    @staticmethod
    def truncated_sum_from_sorted(
        ordered: np.ndarray, prefix: np.ndarray, threshold: float
    ) -> float:
        """``Σ_k min(contribution_k, τ)`` from :meth:`sorted_contributions`."""
        index = int(np.searchsorted(ordered, threshold, side="right"))
        return float(prefix[index] + threshold * (ordered.size - index))

    # ------------------------------------------------------------------
    # data cubes (workload answering)
    # ------------------------------------------------------------------
    def data_cube(
        self,
        attributes: Sequence[Any],
        kind: AggregateKind = AggregateKind.COUNT,
        measure: Optional[Union[Measure, str]] = None,
    ) -> np.ndarray:
        """Memoized data cube over workload attributes (read-only).

        ``attributes`` are :class:`~repro.core.workload.WorkloadAttribute`
        instances (typed loosely to avoid an import cycle).  The cube is built
        with ``np.bincount`` over ``np.ravel_multi_index`` composite codes,
        which is substantially faster than ``np.add.at`` on the same shapes.
        """
        if kind is AggregateKind.AVG:
            raise QueryError("data cubes support COUNT and SUM only")
        measure_key = None
        if kind is not AggregateKind.COUNT:
            if measure is None:
                raise QueryError("SUM data cubes require a measure column")
            measure_key = measure_fingerprint(
                Measure(measure) if isinstance(measure, str) else measure
            )
        key = (
            tuple(
                (attribute.table, attribute.attribute, attribute.domain.size)
                for attribute in attributes
            ),
            kind.value,
            measure_key,
        )
        cube = self._get("cube", key)
        if cube is not None:
            return cube

        began = time.perf_counter()
        database = self.database
        shape = tuple(attribute.domain.size for attribute in attributes)
        for attribute in attributes:
            if attribute.table != database.fact.name and not database.is_direct_dimension(
                attribute.table
            ):
                raise QueryError(
                    "workload attributes must live on the fact table or a "
                    "direct dimension table"
                )
        if not attributes:
            shape = ()
        length = int(np.prod(shape, dtype=np.int64)) if shape else 1
        weights = self.measure_values(measure) if kind is not AggregateKind.COUNT else None

        def chunk_codes(attribute, start: int, stop: int) -> np.ndarray:
            """Composite-code input for fact rows [start, stop): the fact
            column itself, or the dimension attribute gathered through the
            FK codes of those rows."""
            if attribute.table == database.fact.name:
                return np.asarray(database.fact.read_chunk(attribute.attribute, start, stop))
            fk_column = database.schema.foreign_key_for(attribute.table).fact_column
            fk_codes = database.fact.read_chunk(fk_column, start, stop)
            return np.asarray(database.table(attribute.table).codes(attribute.attribute))[
                fk_codes
            ]

        if self._chunk_rows is None:
            if attributes:
                flat = np.ravel_multi_index(
                    tuple(
                        chunk_codes(attribute, 0, database.num_fact_rows)
                        for attribute in attributes
                    ),
                    shape,
                )
            else:
                flat = np.zeros(database.num_fact_rows, dtype=np.int64)
            if kind is AggregateKind.COUNT:
                cube = np.bincount(flat, minlength=length).astype(np.float64)
            else:
                cube = np.bincount(flat, weights=weights, minlength=length)
        else:
            counts: Optional[np.ndarray] = None  # COUNT: exact integer partials
            acc: Optional[np.ndarray] = None  # SUM: strictly in-order float adds
            for start, stop in iter_chunks(database.num_fact_rows, self._chunk_rows):
                if attributes:
                    flat = np.ravel_multi_index(
                        tuple(
                            chunk_codes(attribute, start, stop)
                            for attribute in attributes
                        ),
                        shape,
                    )
                else:
                    flat = np.zeros(stop - start, dtype=np.int64)
                if kind is AggregateKind.COUNT:
                    partial = np.bincount(flat, minlength=length)
                    counts = partial if counts is None else counts + partial
                else:
                    if acc is None:
                        acc = np.zeros(length, dtype=np.float64)
                    # np.add.at applies the adds unbuffered in array order,
                    # which chunk-sequentially reproduces the exact
                    # accumulation order of the whole-column weighted
                    # bincount above — bit-identical float64 cube for every
                    # chunking (pinned by the chunk-sweep tests).
                    np.add.at(acc, flat, weights[start:stop])
            cube = counts.astype(np.float64) if kind is AggregateKind.COUNT else acc
        cube = _freeze(cube.reshape(shape))
        self._put("cube", key, cube, time.perf_counter() - began)
        return cube

    # ------------------------------------------------------------------
    # cube-served scalar counts
    # ------------------------------------------------------------------
    def count_answer_via_cube(self, query: StarJoinQuery) -> Optional[float]:
        """Answer a scalar COUNT query by contracting the memoized data cube.

        The Predicate Mechanism executes a *different* noisy query on every
        trial, so selection-mask caching cannot help it — but all those noisy
        queries share the original query's predicate attributes.  Building the
        COUNT cube over that attribute set once turns each subsequent
        execution into a small sub-cube sum (the paper's own Section 5.3
        device, applied to single queries).  Counts are integers, so the cube
        contraction is exactly the semi-join count.

        Returns ``None`` when the query is not cube-eligible (GROUP BY, SUM /
        AVG, snowflaked or duplicate predicate attributes, domain mismatch, or
        a cube that would exceed :data:`_MAX_CUBE_CELLS`); callers fall back
        to the semi-join plan.
        """
        if query.is_grouped or query.kind is not AggregateKind.COUNT:
            return None
        predicates = list(query.predicates)
        if not predicates:
            return None
        database = self.database
        seen: set[tuple[str, str]] = set()
        pairs = []
        cells = 1
        for predicate in predicates:
            key = (predicate.table, predicate.attribute)
            if key in seen or predicate.domain is None:
                return None
            seen.add(key)
            if predicate.table != database.fact.name and not database.is_direct_dimension(
                predicate.table
            ):
                return None
            column_domain = database.table(predicate.table).domain(predicate.attribute)
            if column_domain is None or column_domain.size != predicate.domain.size:
                return None
            cells *= predicate.domain.size
            if cells > _MAX_CUBE_CELLS:
                return None
            pairs.append((predicate, _CubeAxis(*key, predicate.domain)))
        # Canonical axis order, so every predicate ordering reuses one cube.
        pairs.sort(key=lambda pair: (pair[1].table, pair[1].attribute))
        cube = self.data_cube(tuple(axis for _, axis in pairs), kind=AggregateKind.COUNT)
        selectors = tuple(
            predicate.evaluate_codes(np.arange(axis.domain.size, dtype=np.int64))
            for predicate, axis in pairs
        )
        return float(cube[np.ix_(*selectors)].sum())

    # ------------------------------------------------------------------
    # exact results
    # ------------------------------------------------------------------
    def cached_result(self, query: StarJoinQuery) -> Optional[Any]:
        """A memoized exact answer of ``query``, or ``None``."""
        fingerprint = query_fingerprint(query)
        if fingerprint is None:
            return None
        return self._get("result", fingerprint)

    def store_result(
        self, query: StarJoinQuery, result: Any, cost: Optional[float] = None
    ) -> None:
        """Memoize an exact answer; ``cost`` is the wall-clock the caller
        spent computing it (the executor times its own execution — the
        engine cannot see that work)."""
        fingerprint = query_fingerprint(query)
        if fingerprint is not None:
            self._put("result", fingerprint, result, cost)

    # ------------------------------------------------------------------
    # released answers (the query planner's memo)
    # ------------------------------------------------------------------
    def cached_release(self, key: Hashable) -> Optional[dict]:
        """A memoized served payload, or ``None``.

        ``key`` is the request's full determinism coordinate (see
        :meth:`repro.serving.planner.QueryPlanner.execute`); the namespace
        adds the database content, so a mutated database misses.
        """
        return self._get("release", key)

    def store_release(self, key: Hashable, payload: dict, cost: float) -> None:
        """Memoize a served payload; ``cost`` is the time its trials took.

        Unlike a kernel's, the cost is not recorded as a span: the serving
        layer's own ``serve.execute`` span already covers that time.
        """
        self._store("release", key, payload, cost)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backend = self.backend
        stats = backend.stats()
        return (
            f"ExecutionEngine(db={self.database.fact.name!r}, "
            f"namespace={self._namespace[:8]!r}, backend={backend.name}, "
            f"entries={backend.entry_count(self._namespace)}, "
            f"hits={stats.hits}, misses={stats.misses}, evictions={stats.evictions}, "
            f"shared_hits={stats.shared_hits})"
        )
