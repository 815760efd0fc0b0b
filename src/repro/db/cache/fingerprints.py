"""Semantic fingerprints: the cache keys of the execution layer.

A fingerprint identifies the *semantics* of an object — the selection a
predicate performs, the answer a query computes, the content of a database —
independently of object identity, predicate order or process.  Every
fingerprint is a flat structure of strings, numbers and tuples, so it is
hashable, picklable and stable across processes: the same keys address the
same entries whether a cache lives in-process or in a cache server.

Predicate / selection / query fingerprints moved here from
:mod:`repro.db.engine` (which re-exports them for compatibility) when the
cache layer was extracted; :func:`database_fingerprint` is the namespace the
backends file every key under.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import TYPE_CHECKING, Hashable, Optional, Union

from repro.db.predicates import (
    ConjunctionPredicate,
    PointPredicate,
    Predicate,
    RangePredicate,
    SetPredicate,
    TruePredicate,
)
from repro.db.query import Measure, StarJoinQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.database import StarDatabase

__all__ = [
    "database_fingerprint",
    "measure_fingerprint",
    "predicate_fingerprint",
    "query_fingerprint",
    "selection_fingerprint",
]


def predicate_fingerprint(predicate: Predicate) -> Optional[Hashable]:
    """A hashable key identifying the selection semantics of a predicate.

    The cache namespace pins the database, so ``(table, attribute)`` pins the
    column and the ordinal codes pin the selected region.  Exact types only: a
    subclass may override evaluation, so anything but the four stock predicate
    classes returns ``None`` and is evaluated directly, never cached.
    """
    kind = type(predicate)
    if kind is PointPredicate:
        return (predicate.table, predicate.attribute, "point", predicate.code)
    if kind is RangePredicate:
        return (
            predicate.table,
            predicate.attribute,
            "range",
            predicate.low_code,
            predicate.high_code,
        )
    if kind is SetPredicate:
        return (
            predicate.table,
            predicate.attribute,
            "set",
            tuple(int(code) for code in predicate.codes),
        )
    if kind is TruePredicate:
        return (predicate.table, predicate.attribute, "true")
    return None


def selection_fingerprint(predicates: ConjunctionPredicate) -> Optional[Hashable]:
    """Order-insensitive key of a conjunction (AND is commutative)."""
    members = []
    for predicate in predicates:
        fingerprint = predicate_fingerprint(predicate)
        if fingerprint is None:
            return None
        members.append(fingerprint)
    return tuple(sorted(members))


def measure_fingerprint(measure: Union[Measure, str]) -> Hashable:
    """The (column, subtract) key of a measure expression."""
    if isinstance(measure, str):
        return (measure, None)
    return (measure.column, measure.subtract)


def query_fingerprint(query: StarJoinQuery) -> Optional[Hashable]:
    """A hashable key identifying the semantics (not the name) of a query."""
    selection = selection_fingerprint(query.predicates)
    if selection is None:
        return None
    aggregate = query.aggregate
    measure = None if aggregate.measure is None else measure_fingerprint(aggregate.measure)
    group_by = None if query.group_by is None else tuple(query.group_by.keys)
    return (aggregate.kind.value, measure, selection, group_by)


#: Fingerprints memoized per database *object* (weak keys: the entry dies
#: with its database).  Hashing every column's bytes costs ~1 ms per MB, so
#: paying it once per instance — instead of once per engine construction —
#: keeps first-query latency flat; ``refresh=True`` bypasses and replaces
#: the memo, which is how ``invalidate()`` honours in-place mutation.
_FINGERPRINTS: "weakref.WeakKeyDictionary[StarDatabase, str]" = weakref.WeakKeyDictionary()


def database_fingerprint(database: "StarDatabase", refresh: bool = False) -> str:
    """The cache namespace of a database: a digest of its full content.

    Hashes every table's column bytes (:meth:`repro.db.table.Table.content_digest`)
    plus the schema's join structure, so the namespace is

    * **process-independent** — two workers that built the same logical
      instance compute the same namespace, which is what lets them share a
      cache tier; and
    * **content-bound** — mutating a database in place changes the digest, so
      after :meth:`~repro.db.engine.ExecutionEngine.invalidate` recomputes
      the namespace (``refresh=True``), entries cached for the old content
      can never be served.

    The digest is memoized per database object; anything that mutates a
    database in place must pass ``refresh=True`` to re-hash the new content
    (``invalidate()`` does — there is no automatic change detection, exactly
    as for the caches themselves).
    """
    if not refresh:
        cached = _FINGERPRINTS.get(database)
        if cached is not None:
            return cached
    digest = hashlib.sha256()
    digest.update(database.fact.content_digest().encode("ascii"))
    for name in sorted(database.dimensions):
        digest.update(name.encode("utf-8"))
        digest.update(database.dimensions[name].content_digest().encode("ascii"))
    for dim_name, fk in sorted(database.schema.foreign_keys.items()):
        digest.update(f"{dim_name}<-{fk.fact_column}".encode("utf-8"))
    for edge in database.schema.snowflake_edges:
        digest.update(
            f"{edge.child_table}.{edge.child_column}->{edge.parent_table}".encode("utf-8")
        )
    fingerprint = digest.hexdigest()[:24]
    _FINGERPRINTS[database] = fingerprint
    return fingerprint
