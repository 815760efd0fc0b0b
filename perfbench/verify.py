"""Correctness gates.

Serving: a seeded sample of served answers is recomputed offline through
``repro.serving.request_stream`` + ``evaluate_mechanism`` on an independently
generated copy of the database; the served payload must match byte for byte
once the ``privacy`` and timing fields are dropped.

Grid: the digest of the result rows (``*time_s`` columns dropped) must equal
the one recorded in ``digests.json`` for the grid configuration and seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: Served fields that depend on time or on who asked, not on the answer.
EXCLUDED = ("privacy", "mean_time_s", "coalesced")


def canonical(payload: dict) -> str:
    kept = {key: value for key, value in payload.items() if key not in EXCLUDED}
    return json.dumps(kept, sort_keys=True)


class OfflineServing:
    """Recomputes served answers without a server, planner or ledger."""

    def __init__(self, rows: int, data_seed: int, server_seed: int):
        from repro.datagen.ssb import SSBConfig, SSBGenerator
        from repro.dp.neighboring import PrivacyScenario
        from repro.evaluation.experiments.common import DEFAULT_PRIVATE_DIMENSIONS

        self.database = SSBGenerator(
            SSBConfig(scale_factor=1.0, rows_per_scale_factor=rows, seed=data_seed)
        ).build()
        private = [d for d in DEFAULT_PRIVATE_DIMENSIONS if d in self.database.dimensions]
        self.scenario = PrivacyScenario.dimensions(*private)
        self.server_seed = server_seed

    def answer(self, request: dict) -> dict:
        from repro.db.cache import query_fingerprint
        from repro.db.executor import QueryExecutor
        from repro.db.sql import parse_star_join_sql
        from repro.evaluation.runner import evaluate_mechanism, make_star_mechanism
        from repro.serving import request_stream, serialize_answer
        from repro.workloads.ssb_queries import ssb_query

        schema = self.database.schema
        if "sql" in request:
            query = parse_star_join_sql(request["sql"], schema, name="sql")
        else:
            query = ssb_query(request["query"], schema)
        fingerprint = query_fingerprint(query)
        label = str(fingerprint) if fingerprint is not None else query.describe()
        mechanism_name = request["mechanism"].upper()
        epsilon, trials = float(request["epsilon"]), int(request["trials"])
        result = evaluate_mechanism(
            make_star_mechanism(mechanism_name, epsilon, scenario=self.scenario),
            self.database,
            query,
            trials=trials,
            rng=request_stream(
                self.server_seed, request["database"], mechanism_name, label, epsilon, trials
            ),
            exact_answer=QueryExecutor(self.database).execute(query),
            record_answers=True,
        )
        answers = [serialize_answer(answer) for answer in result.answers]
        return {
            "database": request["database"],
            "mechanism": mechanism_name,
            "query": query.name,
            "epsilon": epsilon,
            "trials": trials,
            "composition": "parallel" if query.is_grouped else "sequential",
            "answer": answers[0],
            "answers": answers,
            "mean_relative_error": result.mean_relative_error,
            "median_relative_error": result.median_relative_error,
        }


def check_served(outcomes, offline: OfflineServing, seed: int, size: int) -> list[str]:
    """Mismatch descriptions for a seeded sample of answered requests."""
    answered = [outcome for outcome in outcomes if outcome.status == "ok"]
    sample = random.Random(f"verify:{seed}").sample(answered, min(size, len(answered)))
    mismatches = []
    for outcome in sample:
        served = canonical(outcome.result)
        expected = canonical(offline.answer(outcome.request))
        if served != expected:
            mismatches.append(
                f"request {json.dumps(outcome.request)}: served {served[:200]}... "
                f"!= offline {expected[:200]}..."
            )
    return mismatches


def recorded_digest(key: str):
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(key)


def record_digest(key: str, digest: str) -> None:
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    digests[key] = digest
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
