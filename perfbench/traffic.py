"""Seeded request streams of the three serving workloads.

Every stream is a pure function of the benchmark seed.  The program under
test sees only the generated JSON requests.

The generators draw only mechanism × query shapes that the program answers
on the serving scenario (private dimension tables) as of this benchmark's
definition, so a refusal in a run is a regression, not noise:

* PM answers every shape;
* R2T and TM answer COUNT and SUM without GROUP BY;
* LS answers COUNT without GROUP BY;
* LM answers nothing here.  With private dimension tables its global
  sensitivity is unbounded and it refuses with ``unsupported``, so it is
  never drawn.
"""

from __future__ import annotations

import random

from repro.datagen.ssb import BRANDS, CATEGORIES, MFGRS, NATIONS, REGIONS, YEARS
from repro.workloads.ssb_queries import SSB_QUERY_NAMES

MECHANISMS = ("PM", "R2T", "TM", "LS", "LM")
EPSILONS = (0.1, 0.2, 0.5, 0.8, 1.0)
TRIALS = 8
ANALYSTS = 64
DATABASE = "bench"

#: (aggregate, grouped) of each named SSB query.
NAMED_SHAPES = {
    name: ("count" if name.startswith("Qc") else "sum", name.startswith("Qg"))
    for name in SSB_QUERY_NAMES
}

#: The first request of every server: what set-up time waits for.
PROBE = {"op": "query", "database": DATABASE, "mechanism": "PM", "epsilon": 1.0,
         "trials": 1, "query": "Qc1", "analyst": "probe"}


def answers(mechanism: str, aggregate: str, grouped: bool) -> bool:
    """Whether the program answers this mechanism × query shape (see above)."""
    if mechanism == "PM":
        return True
    if grouped or mechanism == "LM":
        return False
    if mechanism == "LS":
        return aggregate == "count"
    return True


def _request(rng: random.Random, mechanism: str, epsilon: float, **query) -> dict:
    return {
        "op": "query",
        "database": DATABASE,
        "mechanism": mechanism,
        "epsilon": epsilon,
        "trials": TRIALS,
        "analyst": f"analyst-{rng.randrange(ANALYSTS)}",
        **query,
    }


def _mechanism_for(rng: random.Random, aggregate: str, grouped: bool) -> str:
    return rng.choice([m for m in MECHANISMS if answers(m, aggregate, grouped)])


# ----------------------------------------------------------------------
# serve_repeat: the nine named queries, over and over
# ----------------------------------------------------------------------
def named_candidates() -> list[tuple[str, str, float]]:
    return [
        (name, mechanism, epsilon)
        for name in SSB_QUERY_NAMES
        for mechanism in MECHANISMS
        if answers(mechanism, *NAMED_SHAPES[name])
        for epsilon in EPSILONS
    ]


class RepeatStream:
    """Dashboard traffic: every supported named request once per round, in a
    seeded order (rounds keep the mix of cheap and GROUP BY requests fixed)."""

    def __init__(self, seed: int):
        self._rng = random.Random(f"serve_repeat:{seed}")
        self._candidates = named_candidates()

    def warmup(self) -> list[dict]:
        """Every distinct request once, so the measured phase only hits caches."""
        return [
            _request(self._rng, mechanism, epsilon, query=name)
            for name, mechanism, epsilon in self._candidates
        ]

    def take(self, count: int) -> list[dict]:
        chosen: list[tuple[str, str, float]] = []
        while len(chosen) < count:
            round_ = list(self._candidates)
            self._rng.shuffle(round_)
            chosen.extend(round_)
        return [
            _request(self._rng, mechanism, epsilon, query=name)
            for name, mechanism, epsilon in chosen[:count]
        ]


# ----------------------------------------------------------------------
# serve_adhoc / serve_shared: random star-join SQL
# ----------------------------------------------------------------------
def _quote(value) -> str:
    return f"'{value}'" if isinstance(value, str) else str(value)


def _predicate(rng: random.Random, table: str) -> str:
    """One filter on ``table``: point, OR-set or year range."""
    if table == "Date":
        low = rng.choice(YEARS)
        if rng.random() < 0.3:
            return f"Date.year = {low}"
        high = rng.choice([year for year in YEARS if year >= low])
        return f"Date.year BETWEEN {low} AND {high}"
    if table == "Part":
        attribute = rng.choice(("mfgr", "category", "brand"))
        domain = {"mfgr": MFGRS, "category": CATEGORIES, "brand": BRANDS}[attribute]
    else:
        attribute = rng.choice(("region", "nation"))
        domain = REGIONS if attribute == "region" else NATIONS
    column = f"{table}.{attribute}"
    if attribute in ("region", "mfgr") and rng.random() < 0.4:
        values = rng.sample(domain, 2)
        # The parser splits on AND before OR and takes no parentheses.
        return " OR ".join(f"{column} = {_quote(v)}" for v in values)
    return f"{column} = {_quote(rng.choice(domain))}"


GROUP_KEYS = ("Date.year", "Part.mfgr", "Customer.region", "Supplier.region")


class AdhocSql:
    """Distinct random star-join SELECTs: 1–3 filtered dimensions, COUNT or
    SUM(revenue), about one in five with a GROUP BY."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._seen: set[str] = set()

    def next(self) -> tuple[str, str, bool]:
        rng = self._rng
        while True:
            tables = rng.sample(("Customer", "Supplier", "Part", "Date"), rng.choice((1, 2, 2, 3)))
            aggregate = rng.choice(("count", "sum"))
            grouped = rng.random() < 0.2
            select = "count(*)" if aggregate == "count" else "sum(Lineorder.revenue)"
            group = rng.choice(GROUP_KEYS) if grouped else None
            used = set(tables) | ({group.split(".")[0]} if group else set())
            sql = (
                f"SELECT {select}{', ' + group if group else ''} "
                f"FROM Lineorder, {', '.join(sorted(used))} "
                f"WHERE {' AND '.join(_predicate(rng, table) for table in tables)}"
                f"{' GROUP BY ' + group if group else ''}"
            )
            if sql not in self._seen:
                self._seen.add(sql)
                return sql, aggregate, grouped


class AdhocStream:
    """Exploratory analysts: every request is a new query."""

    def __init__(self, seed: int):
        self._rng = random.Random(f"serve_adhoc:{seed}")
        self._sql = AdhocSql(self._rng)

    def _one(self) -> dict:
        sql, aggregate, grouped = self._sql.next()
        mechanism = _mechanism_for(self._rng, aggregate, grouped)
        return _request(self._rng, mechanism, self._rng.choice(EPSILONS), sql=sql)

    def warmup(self, count: int) -> list[dict]:
        return [self._one() for _ in range(count)]

    def take(self, count: int) -> list[dict]:
        return [self._one() for _ in range(count)]


class SharedStream:
    """Ad-hoc SQL with Zipf-skewed repetition of a fixed template pool.

    The pool and its popularity ranks are part of the workload, the same for
    every seed (so runs share one cost profile); the seed draws the stream.
    """

    def __init__(self, seed: int, templates: int, skew: float):
        self._rng = random.Random(f"serve_shared:{seed}")
        sql = AdhocSql(random.Random("serve_shared:templates"))
        self._templates = [sql.next() for _ in range(templates)]
        self._weights = [1.0 / (rank + 1) ** skew for rank in range(templates)]

    def _one(self) -> dict:
        (sql, aggregate, grouped), = self._rng.choices(self._templates, self._weights)
        mechanism = _mechanism_for(self._rng, aggregate, grouped)
        return _request(self._rng, mechanism, self._rng.choice(EPSILONS), sql=sql)

    def warmup(self, count: int) -> list[dict]:
        return [self._one() for _ in range(count)]

    def take(self, count: int) -> list[dict]:
        return [self._one() for _ in range(count)]
