"""Planning and executing served query requests.

The planner is the bridge between the wire protocol and the offline
evaluation stack.  It owns the server's database registry (generated SSB /
snowflake / k-star instances, warmed through the shared
:class:`~repro.db.engine.ExecutionEngine` and whatever cache backend is
active) and turns each ``query`` request into a :class:`PlannedQuery`:
a resolved query object, a mechanism name, a privacy charge, and — the part
that makes serving reproducible — the request's *stream label*.

Determinism contract
--------------------
A served answer is a pure function of ``(master seed, stream label)``.  The
label is derived from the request's semantics (database name, mechanism,
query fingerprint, ε, trials), hashed through the same
:func:`~repro.evaluation.experiments.common.cell_stream` SHA-256 scheme the
offline drivers use, and the execution path *is* the offline path:
:func:`~repro.evaluation.runner.evaluate_mechanism` /
:func:`~repro.evaluation.runner.evaluate_kstar_mechanism` with that stream.
Running the same request offline with :func:`request_stream` therefore
produces byte-identical answers — the parity the serving tests pin, for the
local and the remote cache backend alike.  Because the label ignores *who*
asks and *when*, concurrent identical requests are also identical
computations, which is what makes single-flight coalescing
(:mod:`repro.serving.singleflight`) safe.

Released-answer memo
--------------------
For the same reason a repeat *across time* may reuse the bytes already
released: a star-join execution's payload is stored in the engine's bounded
``release`` cache region, keyed by the full determinism coordinate — the
master seed, :attr:`PlannedQuery.key` and the database's privacy scenario —
inside the database's content namespace, so planners differing in seed or
private dimensions never share an entry and a mutated database misses.  The
region is in-process only (never written to a cache server), bounded by
the backend's ``--cache-size`` / ``--cache-max-bytes`` / ``--cache-policy``
and by a fixed byte cap (``REGION_MAX_BYTES``): a client sizes a payload
through GROUP BY cardinality × trials, and one larger than the cap is served
but not kept.  Only successful executions are stored: refusals and failures
run again.
The ledger is unaffected — every request is still admitted and charged,
memo hit or not.  k-star requests have no engine namespace and always
execute.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Hashable, Optional

import numpy as np

from repro.datagen.ssb import SSBConfig, SSBGenerator
from repro.datagen.tpch import SnowflakeConfig, SnowflakeGenerator
from repro.db.cache import query_fingerprint
from repro.db.engine import ExecutionEngine
from repro.db.executor import GroupedResult, QueryExecutor
from repro.db.query import StarJoinQuery
from repro.db.sql import parse_star_join_sql
from repro.dp.neighboring import PrivacyScenario
from repro.evaluation.experiments.common import (
    DEFAULT_PRIVATE_DIMENSIONS,
    cell_stream,
)
from repro.evaluation.runner import (
    KSTAR_MECHANISMS,
    STAR_MECHANISMS,
    EvaluationResult,
    evaluate_kstar_mechanism,
    evaluate_mechanism,
    make_kstar_mechanism,
    make_star_mechanism,
)
from repro.exceptions import DataGenerationError, QueryError, ReproError
from repro.graph.generators import amazon_like, deezer_like, powerlaw_graph
from repro.graph.kstar import KStarQuery, kstar_count
from repro.obs.trace import span
from repro.serving.protocol import ServingError
from repro.serving.singleflight import SingleFlight
from repro.workloads.kstar_queries import kstar_query
from repro.workloads.ssb_queries import ssb_query
from repro.workloads.tpch_queries import snowflake_queries

__all__ = [
    "DATABASE_KINDS",
    "MAX_TRIALS",
    "PlannedQuery",
    "QueryPlanner",
    "RegisteredDatabase",
    "request_stream",
    "serialize_answer",
]

#: Registerable database kinds.
DATABASE_KINDS = ("ssb", "snowflake", "kstar")

#: Upper bound on per-request trials (a request is interactive, not a sweep).
MAX_TRIALS = 100


# ----------------------------------------------------------------------
# JSON-friendly result serialisation
# ----------------------------------------------------------------------
def _json_scalar(value: Any) -> Any:
    """Coerce numpy scalars / odd key types into JSON-serialisable ones."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return str(value)


def serialize_answer(answer: Any) -> Any:
    """One noisy answer as a JSON value.

    Scalars stay scalars; a :class:`GroupedResult` becomes
    ``{"keys": [...], "groups": [[key values..., value], ...]}`` with the
    groups sorted by key, so equal answers serialise to equal JSON — the
    currency of the byte-identity parity tests.
    """
    if isinstance(answer, GroupedResult):
        groups = sorted(
            ([_json_scalar(part) for part in key] + [float(value)]
             for key, value in answer.groups.items()),
            key=lambda row: [str(part) for part in row[:-1]],
        )
        return {
            "keys": [f"{table}.{attribute}" for table, attribute in answer.keys],
            "groups": groups,
        }
    return float(answer)


def request_stream(
    seed: int,
    database: str,
    mechanism: str,
    query_label: Hashable,
    epsilon: float,
    trials: int,
) -> np.random.SeedSequence:
    """The seed stream a served request draws its noise from.

    Exposed so offline code (the parity tests, notebooks) can reproduce a
    served answer exactly: pass the server's master seed and the request's
    coordinates and feed the returned stream to
    :func:`~repro.evaluation.runner.evaluate_mechanism`.
    """
    return cell_stream(
        seed, "serve", database, mechanism, query_label, float(epsilon), int(trials)
    )


# ----------------------------------------------------------------------
# registry entries and planned requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegisteredDatabase:
    """One registered instance: the built database plus its normalised spec."""

    name: str
    kind: str
    spec: tuple  # canonical (sorted) parameter items, for idempotent re-register
    database: Any  # StarDatabase for ssb/snowflake, Graph for kstar
    scenario: Optional[PrivacyScenario]  # None for graph databases

    @property
    def is_graph(self) -> bool:
        return self.kind == "kstar"

    def info(self) -> dict:
        payload = {"name": self.name, "kind": self.kind, "spec": dict(self.spec)}
        if self.is_graph:
            payload["num_nodes"] = int(self.database.num_nodes)
            payload["num_edges"] = int(len(self.database.edges))
        else:
            payload["fact_rows"] = int(self.database.fact.num_rows)
            payload["dimensions"] = sorted(self.database.dimensions)
            payload["private_dimensions"] = list(self.scenario.private_dimensions)
        return payload


@dataclass(frozen=True)
class PlannedQuery:
    """A validated, executable request with its determinism coordinates."""

    entry: RegisteredDatabase
    mechanism: str
    epsilon: float
    trials: int
    query: Any  # StarJoinQuery or KStarQuery
    query_label: Hashable  # semantic query key entering the stream label
    parallel: bool  # GROUP BY → parallel composition at the ledger

    @property
    def key(self) -> Hashable:
        """Coalescing key == determinism coordinates (identical requests only)."""
        return (
            self.entry.name,
            self.mechanism,
            self.query_label,
            float(self.epsilon),
            int(self.trials),
        )

    @property
    def query_name(self) -> str:
        return self.query.name if hasattr(self.query, "name") else self.query.label


# ----------------------------------------------------------------------
# the planner
# ----------------------------------------------------------------------
class QueryPlanner:
    """Database registry + request planning/execution for the server.

    ``storage="mapped"`` makes every registered star/snowflake database spill
    once to ``data_dir/<name>`` and attach read-only (see ``docs/STORAGE.md``):
    multiple serving processes registering the same spec share one on-disk
    copy through the page cache instead of each materialising its own arrays,
    and restarts attach instantly.  Served answers are byte-identical to the
    in-memory storage mode — the determinism contract above is unchanged.
    """

    def __init__(
        self,
        seed: int = 20230711,
        storage: str = "memory",
        data_dir: Optional[str] = None,
    ):
        if storage not in ("memory", "mapped"):
            raise ValueError(f"storage must be 'memory' or 'mapped', got {storage!r}")
        if storage == "mapped" and not data_dir:
            raise ValueError('storage="mapped" requires data_dir')
        self.seed = int(seed)
        self.storage = storage
        self.data_dir = data_dir
        self._databases: dict[str, RegisteredDatabase] = {}
        self._lock = threading.Lock()
        self.singleflight = SingleFlight()
        #: Released-answer memo lookups (star-join executions only).
        self.memo_hits = 0
        self.memo_misses = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, name: str, kind: str, **params: Any) -> dict:
        """Build and register a generated database under ``name``.

        Re-registering the same (kind, params) under the same name is
        idempotent; a conflicting spec is refused (``already_registered``)
        rather than silently replacing a database other analysts may be
        querying.  Returns the entry's info payload.
        """
        if not name or not isinstance(name, str):
            raise ServingError("bad_request", "register requires a non-empty string 'name'")
        if kind not in DATABASE_KINDS:
            raise ServingError(
                "bad_request",
                f"unknown database kind {kind!r}; available: {DATABASE_KINDS}",
            )
        spec = tuple(sorted(params.items()))
        with self._lock:
            existing = self._databases.get(name)
        if existing is not None:
            if existing.kind == kind and existing.spec == spec:
                payload = existing.info()
                payload["already_registered"] = True
                return payload
            raise ServingError(
                "already_registered",
                f"database {name!r} is already registered with a different spec",
                name=name,
            )
        entry = self._build(name, kind, spec, params)
        with self._lock:
            raced = self._databases.get(name)
            if raced is not None:
                if raced.kind == kind and raced.spec == spec:
                    entry = raced
                else:
                    raise ServingError(
                        "already_registered",
                        f"database {name!r} is already registered with a different spec",
                        name=name,
                    )
            else:
                self._databases[name] = entry
        return entry.info()

    def _build(self, name: str, kind: str, spec: tuple, params: dict) -> RegisteredDatabase:
        params = dict(params)
        try:
            if kind in ("ssb", "snowflake"):
                return self._build_star(name, kind, spec, params)
            return self._build_graph(name, spec, params)
        except (DataGenerationError, TypeError, ValueError) as error:
            raise ServingError(
                "bad_request", f"cannot build {kind!r} database {name!r}: {error}"
            ) from None

    def _build_star(self, name: str, kind: str, spec: tuple, params: dict) -> RegisteredDatabase:
        private = params.pop("private_dimensions", None)
        config_cls = SSBConfig if kind == "ssb" else SnowflakeConfig
        config = config_cls(
            scale_factor=float(params.pop("scale_factor", 1.0)),
            rows_per_scale_factor=int(params.pop("rows_per_scale_factor", 8_000)),
            key_distribution=params.pop("key_distribution", "uniform"),
            measure_distribution=params.pop("measure_distribution", "uniform"),
            seed=int(params.pop("seed", self.seed)),
        )
        if params:
            raise ServingError(
                "bad_request", f"unknown register parameters: {sorted(params)}"
            )
        generator = SSBGenerator(config) if kind == "ssb" else SnowflakeGenerator(config)
        if self.storage == "mapped":
            # Spill-or-attach under the registered name: a process that finds
            # the manifest already on disk (an earlier registration, another
            # serving process, a restart) attaches without generating at all;
            # the spill itself is idempotent and race-safe.
            from repro.db.storage import MANIFEST_NAME, attach_database

            instance_dir = Path(self.data_dir) / name
            if not (instance_dir / MANIFEST_NAME).is_file():
                generator.spill_to(instance_dir)
            database = attach_database(instance_dir)
        else:
            database = generator.build()
        # Warm the shared engine now so the first served query does not pay
        # for engine construction; caches route to the active backend.
        ExecutionEngine.for_database(database)
        if private is None:
            private = [d for d in DEFAULT_PRIVATE_DIMENSIONS if d in database.dimensions]
            if not private:
                private = sorted(database.dimensions)
        else:
            private = [str(d) for d in private]
            unknown = [d for d in private if d not in database.dimensions]
            if unknown:
                raise ServingError(
                    "bad_request", f"private_dimensions not in schema: {unknown}"
                )
        scenario = PrivacyScenario.dimensions(*private)
        return RegisteredDatabase(name, kind, spec, database, scenario)

    def _build_graph(self, name: str, spec: tuple, params: dict) -> RegisteredDatabase:
        generator = params.pop("generator", "deezer")
        seed = int(params.pop("seed", self.seed))
        scale = float(params.pop("scale", 0.01))
        if generator == "powerlaw":
            graph = powerlaw_graph(
                num_nodes=int(params.pop("num_nodes", 1_000)),
                num_edges=int(params.pop("num_edges", 5_000)),
                exponent=float(params.pop("exponent", 2.5)),
                rng=seed,
            )
        elif generator in ("deezer", "amazon"):
            builder = deezer_like if generator == "deezer" else amazon_like
            graph = builder(rng=seed, scale=scale)
        else:
            raise ServingError(
                "bad_request",
                f"unknown graph generator {generator!r}; "
                "available: deezer, amazon, powerlaw",
            )
        if params:
            raise ServingError(
                "bad_request", f"unknown register parameters: {sorted(params)}"
            )
        return RegisteredDatabase(name, "kstar", spec, graph, None)

    # ------------------------------------------------------------------
    def database(self, name: str) -> RegisteredDatabase:
        with self._lock:
            entry = self._databases.get(name)
        if entry is None:
            with self._lock:
                available = sorted(self._databases)
            raise ServingError(
                "unknown_database",
                f"no database registered under {name!r}",
                available=available,
            )
        return entry

    def databases(self) -> list[dict]:
        with self._lock:
            entries = list(self._databases.values())
        return [entry.info() for entry in entries]

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self, request: dict) -> PlannedQuery:
        """Validate a ``query`` request and resolve it into a plan."""
        entry = self.database(self._require_str(request, "database"))
        mechanism = self._require_str(request, "mechanism").upper()
        allowed = KSTAR_MECHANISMS if entry.is_graph else STAR_MECHANISMS
        if mechanism not in allowed:
            raise ServingError(
                "bad_request",
                f"unknown mechanism {mechanism!r} for a {entry.kind} database; "
                f"available: {list(allowed)}",
            )
        try:
            epsilon = float(request.get("epsilon", 0.0))
            delta = float(request.get("delta", 0.0))
        except (TypeError, ValueError):
            raise ServingError("bad_request", "epsilon/delta must be numbers") from None
        if not epsilon > 0:
            raise ServingError("bad_request", f"epsilon must be positive, got {epsilon!r}")
        if delta != 0:
            # Every available mechanism is pure DP; accepting (and charging)
            # a δ that cannot influence the answer would bill the analyst's
            # δ budget for nothing.
            raise ServingError(
                "bad_request",
                "all mechanisms are pure DP (delta = 0); drop the 'delta' field",
            )
        try:
            trials = int(request.get("trials", 1))
        except (TypeError, ValueError):
            raise ServingError("bad_request", "trials must be an integer") from None
        if not 1 <= trials <= MAX_TRIALS:
            raise ServingError(
                "bad_request", f"trials must lie in [1, {MAX_TRIALS}], got {trials}"
            )

        if entry.is_graph:
            query, label = self._resolve_kstar_query(entry, request)
            parallel = False
        else:
            query, label = self._resolve_star_query(entry, request)
            parallel = query.is_grouped
        return PlannedQuery(
            entry=entry,
            mechanism=mechanism,
            epsilon=epsilon,
            trials=trials,
            query=query,
            query_label=label,
            parallel=parallel,
        )

    @staticmethod
    def _require_str(request: dict, field: str) -> str:
        value = request.get(field)
        if not value or not isinstance(value, str):
            raise ServingError("bad_request", f"request requires a string {field!r} field")
        return value

    def _resolve_star_query(
        self, entry: RegisteredDatabase, request: dict
    ) -> tuple[StarJoinQuery, Hashable]:
        sql = request.get("sql")
        named = request.get("query")
        if (sql is None) == (named is None):
            raise ServingError(
                "bad_request", "a star-join request needs exactly one of 'sql' or 'query'"
            )
        schema = entry.database.schema
        try:
            if sql is not None:
                query = parse_star_join_sql(str(sql), schema, name="sql")
            elif entry.kind == "ssb":
                query = ssb_query(str(named), schema)
            else:
                by_name = {q.name: q for q in snowflake_queries(schema)}
                if named not in by_name:
                    raise QueryError(
                        f"unknown snowflake query {named!r}; available: {sorted(by_name)}"
                    )
                query = by_name[named]
        except QueryError as error:
            raise ServingError("query_error", str(error)) from None
        # The *semantic* fingerprint keys the stream and the flight: the SQL
        # spelling of a named query coalesces with (and answers identically
        # to) the named form.
        fingerprint = query_fingerprint(query)
        label = str(fingerprint) if fingerprint is not None else query.describe()
        return query, label

    @staticmethod
    def _resolve_kstar_query(
        entry: RegisteredDatabase, request: dict
    ) -> tuple[KStarQuery, Hashable]:
        try:
            k = int(request.get("k", 0))
        except (TypeError, ValueError):
            raise ServingError("bad_request", "a k-star request needs an integer 'k'") from None
        if not 2 <= k <= 10:
            raise ServingError("bad_request", f"k must lie in [2, 10], got {k}")
        return kstar_query(k, entry.database), f"kstar:{k}"

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, planned: PlannedQuery) -> dict:
        """Execute a plan (single-flighted, memoized) and return its payload.

        Concurrent identical plans share one execution, and a repeat of a
        released star-join answer is served from the memo (module
        docstring).  Each caller gets its own payload dict naming its own
        query spelling, with ``coalesced`` flagging whether the answer came
        from another caller's in-flight execution.  Nested values are shared
        with the memo and must be treated as read-only.
        """
        base, shared = self.singleflight.do(planned.key, lambda: self._execute(planned))
        payload = dict(base)
        # The shared payload names the spelling of whoever executed it.
        payload["query"] = planned.query_name
        payload["coalesced"] = shared
        return payload

    def _execute(self, planned: PlannedQuery) -> dict:
        database = planned.entry.database
        engine = None if planned.entry.is_graph else ExecutionEngine.for_database(database)
        memo_key = (self.seed, planned.key, planned.entry.scenario)
        # One span per execution or memo hit: coalesced callers share it
        # (their payloads flag `coalesced`), so traced time is never
        # double-counted.
        with span(
            "serve.execute",
            database=planned.entry.name,
            mechanism=planned.mechanism,
            query=str(planned.query_name),
            trials=planned.trials,
        ) as current:
            if engine is not None:
                released = engine.cached_release(memo_key)
                with self._lock:
                    if released is None:
                        self.memo_misses += 1
                    else:
                        self.memo_hits += 1
                if current is not None:
                    current.set(memo_hit=released is not None)
                if released is not None:
                    return released
            stream = request_stream(
                self.seed,
                planned.entry.name,
                planned.mechanism,
                planned.query_label,
                planned.epsilon,
                planned.trials,
            )
            try:
                if planned.entry.is_graph:
                    result = self._execute_kstar(planned, stream)
                else:
                    result = self._execute_star(planned, stream)
            except ServingError:
                raise
            except ReproError as error:
                raise ServingError("query_error", str(error)) from None
        if result.unsupported:
            raise ServingError(
                "unsupported",
                result.message or
                f"{planned.mechanism} does not support query {planned.query_name!r}",
                mechanism=planned.mechanism,
                query=planned.query_name,
            )
        answers = [serialize_answer(answer) for answer in result.answers]
        payload = {
            "database": planned.entry.name,
            "mechanism": planned.mechanism,
            "query": planned.query_name,
            "epsilon": planned.epsilon,
            "trials": planned.trials,
            "composition": "parallel" if planned.parallel else "sequential",
            "answer": answers[0],
            "answers": answers,
            # Reproduction-benchmark metadata, not part of the DP release: the
            # relative errors are measured against the exact answer.
            "mean_relative_error": result.mean_relative_error,
            "median_relative_error": result.median_relative_error,
            "mean_time_s": result.mean_time,
        }
        if engine is not None:
            # The trials' measured time is the cost a later miss would pay.
            engine.store_release(memo_key, payload, result.mean_time * planned.trials)
        return payload

    def _execute_star(
        self, planned: PlannedQuery, stream: np.random.SeedSequence
    ) -> EvaluationResult:
        database = planned.entry.database
        mechanism = make_star_mechanism(
            planned.mechanism, planned.epsilon, scenario=planned.entry.scenario
        )
        exact = QueryExecutor(database).execute(planned.query)
        with span("mechanism.trials", mechanism=planned.mechanism, trials=planned.trials):
            return evaluate_mechanism(
                mechanism,
                database,
                planned.query,
                trials=planned.trials,
                rng=stream,
                exact_answer=exact,
                record_answers=True,
            )

    def _execute_kstar(
        self, planned: PlannedQuery, stream: np.random.SeedSequence
    ) -> EvaluationResult:
        graph = planned.entry.database
        mechanism = make_kstar_mechanism(planned.mechanism, planned.epsilon)
        exact = kstar_count(graph, planned.query)
        with span("mechanism.trials", mechanism=planned.mechanism, trials=planned.trials):
            return evaluate_kstar_mechanism(
                mechanism,
                graph,
                planned.query,
                trials=planned.trials,
                rng=stream,
                exact_answer=exact,
                record_answers=True,
            )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            names = sorted(self._databases)
            memo = {"hits": self.memo_hits, "misses": self.memo_misses}
        return {"databases": names, "singleflight": self.singleflight.stats(), "memo": memo}
