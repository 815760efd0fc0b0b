"""Graphs as relational edge tables.

The k-star counting queries of the paper are SQL self-joins over an
``Edge(from_id, to_id)`` table (Appendix A.2).  :class:`Graph` stores an
undirected simple graph as a numpy edge list, exposes the degree sequence the
counting algorithms work from, and can materialise the relational edge-table
view so the self-join formulation can be tested against the degree-based one.

Graphs are treated as immutable once constructed: the edge list is read-only,
and the degree sequence, the per-``k`` star-count statistics (see
:mod:`repro.graph.kstar`), the TM thresholds (see :mod:`repro.graph.dp_kstar`)
and one truncation plan per threshold τ (:class:`_TruncationPlan`) are
computed once, cached on the instance and returned read-only.  That is what
lets the k-star mechanisms share work across repeated evaluation trials: a
TM trial only shuffles the edge order and decides the edges the plan leaves
open (:func:`_greedy_truncation`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.db.table import Column, Table
from repro.exceptions import DataGenerationError

__all__ = ["Graph"]

#: Rounds of the vectorized greedy before falling back to the sequential
#: scan for whatever edges remain undecided (usually none).
_TRUNCATION_MAX_ROUNDS = 40


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class _TruncationPlan:
    """The part of greedy truncation at one τ that the edge order cannot change.

    Call a node of degree > τ a *hub*.  A node of degree ≤ τ never holds τ
    kept edges while one of its edges is still undecided, so only hubs ever
    drop an edge, and the *safe* edges, without a hub endpoint, are kept in
    every trial (they contribute ``safe_degrees``).  ``hub_index`` numbers
    the ``num_hubs`` hubs and maps every other node to -1; ``edge_hub``
    gives, per edge, the hub index of its only hub endpoint, -1 for a safe
    edge and -2 for an edge joining two hubs.
    """

    num_hubs: int
    hub_index: np.ndarray
    edge_hub: np.ndarray
    safe_degrees: np.ndarray

    @classmethod
    def build(cls, edges: np.ndarray, degrees: np.ndarray, threshold: int) -> "_TruncationPlan":
        num_nodes = degrees.shape[0]
        hubs = np.flatnonzero(degrees > threshold)
        hub_index = np.full(num_nodes, -1, dtype=np.int64)
        hub_index[hubs] = np.arange(hubs.shape[0])
        ends = hub_index[edges]
        hub_ends = np.count_nonzero(ends >= 0, axis=1)
        safe = edges[hub_ends == 0]
        return cls(
            num_hubs=int(hubs.shape[0]),
            hub_index=_freeze(hub_index),
            edge_hub=_freeze(np.where(hub_ends == 2, -2, ends.max(axis=1))),
            safe_degrees=_freeze(np.bincount(safe.ravel(), minlength=num_nodes)),
        )


def _greedy_truncation(
    edges: np.ndarray, threshold: int, order: np.ndarray, plan: _TruncationPlan
) -> np.ndarray:
    """Vectorized greedy degree truncation: the ids of the non-safe edges kept.

    Replicates, edge for edge, the sequential greedy scan (process edges in
    ``order``; keep an edge iff both endpoints have kept fewer than
    ``threshold`` edges so far) without a Python loop over the edge list.
    ``plan`` keeps the safe edges outright, and only hubs (degree > τ) can
    drop an edge; a hub keeps edges until it holds τ.

    1. An edge with one hub endpoint is kept iff its hub still has room when
       the scan reaches it, so every hub keeps a prefix of its single-hub
       edges in processing order: the first ``min(τ - p, s)`` of its ``s``,
       where ``p`` counts its kept edges to other hubs.  One sort of the
       unique key ``hub · num_edges + position`` groups them per hub.
    2. The few edges joining two hubs are decided by
       :func:`_decide_hub_pairs`, which needs from step 1 only how many
       single-hub edges precede each of them at each hub.
    """
    num_edges = int(order.shape[0])
    num_hubs = plan.num_hubs
    if num_hubs == 0:
        return order[:0]
    hub_at = plan.edge_hub.take(order)  # per position in processing order

    single_pos = np.flatnonzero(hub_at >= 0)
    single_hub = hub_at.take(single_pos)
    single_count = np.bincount(single_hub, minlength=num_hubs)
    single_start = np.cumsum(single_count) - single_count
    single_key = single_hub * num_edges + single_pos
    single_key.sort()

    pair_pos = np.flatnonzero(hub_at == -2)
    pair_edges = order.take(pair_pos)
    pair_hubs = plan.hub_index.take(np.take(edges, pair_edges, axis=0))  # (pairs, 2)
    singles_before = np.searchsorted(
        single_key, pair_hubs * num_edges + pair_pos[:, None]
    ) - single_start.take(pair_hubs)
    kept_pairs = _decide_hub_pairs(pair_hubs, singles_before, threshold, num_hubs)

    pairs_held = np.bincount(pair_hubs[kept_pairs].ravel(), minlength=num_hubs)
    quota = np.minimum(threshold - pairs_held, single_count)
    # Indices of each hub's first ``quota`` entries in single_key.
    taken = np.arange(int(quota.sum())) + np.repeat(single_start - np.cumsum(quota) + quota, quota)
    kept_singles = order.take(single_key.take(taken) % num_edges)
    return np.concatenate([kept_singles, pair_edges[kept_pairs]])


def _decide_hub_pairs(
    pair_hubs: np.ndarray, singles_before: np.ndarray, threshold: int, num_hubs: int
) -> np.ndarray:
    """Which edges joining two hubs the greedy keeps (a mask over the pairs).

    ``pair_hubs[j]`` are the hub indices of the ``j``-th such edge in
    processing order and ``singles_before[j]`` the single-hub edges ahead of
    it at each.  Each edge has one entry per hub; an entry's *filled* count is
    the single-hub edges plus the kept pair edges before it at its hub, and
    the scan's count there is ``min(τ, filled)``.

    Vectorized rounds run on the entries still undecided: an edge is
    *certainly rejected* once an entry's hub is filled (``filled ≥ τ``), and
    *certainly accepted* when each entry fits even if every undecided edge
    before it at the hub is kept.  Decided entries leave the arrays.  Each
    round decides at least the earliest undecided edge, and in practice two
    or three rounds decide them all; stragglers after
    ``_TRUNCATION_MAX_ROUNDS`` rounds are decided by the literal sequential
    rule, in processing order.
    """
    num_pairs = int(pair_hubs.shape[0])
    status = np.zeros(num_pairs, dtype=np.int8)  # 0 undecided, 1 kept, -1 dropped
    if num_pairs == 0:
        return status == 1
    # Entries sorted by (hub, processing order): the unique key hub · pairs + slot.
    key = pair_hubs.ravel() * num_pairs + np.arange(2 * num_pairs) // 2
    entry = np.argsort(key)
    hub, slot = np.divmod(key.take(entry), num_pairs)
    filled = singles_before.ravel().take(entry)

    for _ in range(_TRUNCATION_MAX_ROUNDS):
        full = filled >= threshold
        if full.any():
            status[slot[full]] = -1
            alive = np.flatnonzero(status.take(slot) == 0)
            hub, slot, filled = hub.take(alive), slot.take(alive), filled.take(alive)
        if slot.shape[0] == 0:
            break
        # An entry's index minus its hub run's first index counts the
        # undecided entries before it at the hub.
        counts = np.bincount(hub, minlength=num_hubs)
        first = (np.cumsum(counts) - counts).take(hub)
        late = slot[filled + np.arange(slot.shape[0]) - first >= threshold]
        status[late] = 2  # edges with an entry that may not fit, this round only
        accept = status.take(slot) == 0
        status[late] = 0
        if not accept.any():
            break
        status[slot[accept]] = 1
        # Fold the kept edges into the filled counts of later entries at their hubs.
        kept_before = np.cumsum(accept) - accept
        filled = filled + kept_before - kept_before.take(first)
        rest = np.flatnonzero(~accept)
        hub, slot, filled = hub.take(rest), slot.take(rest), filled.take(rest)

    if slot.shape[0]:
        kept_since = np.zeros(num_hubs, dtype=np.int64)
        for a, b in np.argsort(slot, kind="stable").reshape(-1, 2):
            if (
                filled[a] + kept_since[hub[a]] < threshold
                and filled[b] + kept_since[hub[b]] < threshold
            ):
                status[slot[a]] = 1
                kept_since[hub[a]] += 1
                kept_since[hub[b]] += 1
    return status == 1


class Graph:
    """An undirected simple graph over nodes ``0 .. num_nodes - 1``."""

    def __init__(self, num_nodes: int, edges: np.ndarray, name: str = "graph"):
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or (edges.size and edges.shape[1] != 2):
            raise DataGenerationError("edges must be an (m, 2) array")
        if num_nodes <= 0:
            raise DataGenerationError("a graph needs at least one node")
        if edges.size:
            if edges.min() < 0 or edges.max() >= num_nodes:
                raise DataGenerationError(
                    f"edge endpoints must lie in [0, {num_nodes}), got "
                    f"[{edges.min()}, {edges.max()}]"
                )
        self.name = name
        self.num_nodes = int(num_nodes)
        self.edges = _freeze(self._canonicalise(edges, self.num_nodes))
        self._init_caches()

    def _init_caches(self, degrees: Optional[np.ndarray] = None) -> None:
        self._degrees = None if degrees is None else _freeze(degrees)
        #: Per-k prefix-summed star counts, populated by repro.graph.kstar.
        self._star_prefix_cache: dict[int, np.ndarray] = {}
        #: Per-quantile TM thresholds, populated by repro.graph.dp_kstar.
        self._tm_thresholds: dict[float, int] = {}
        #: Per-τ truncation plans, built by _truncation.
        self._truncation_plans: dict[int, _TruncationPlan] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def _canonicalise(edges: np.ndarray, num_nodes: int) -> np.ndarray:
        """Drop self-loops and duplicate edges; store each edge as (min, max),
        rows in lexicographic order."""
        if edges.size == 0:
            return edges.reshape(0, 2)
        low = np.minimum(edges[:, 0], edges[:, 1])
        high = np.maximum(edges[:, 0], edges[:, 1])
        keep = low != high
        # One code per edge; sorting the codes sorts the (low, high) rows.
        codes = np.unique(low[keep] * num_nodes + high[keep])
        return np.stack([codes // num_nodes, codes % num_nodes], axis=1)

    @classmethod
    def _from_canonical(
        cls,
        num_nodes: int,
        edges: np.ndarray,
        name: str,
        degrees: Optional[np.ndarray] = None,
    ) -> "Graph":
        """Build a graph from edges already known to be canonical.

        Used for subgraphs of a canonical edge list (truncation), where
        re-sorting and de-duplicating would only repeat work.
        """
        graph = cls.__new__(cls)
        graph.name = name
        graph.num_nodes = int(num_nodes)
        graph.edges = _freeze(edges)
        graph._init_caches(degrees)
        return graph

    @classmethod
    def from_edge_list(
        cls, edges: Iterable[tuple[int, int]], num_nodes: Optional[int] = None, name: str = "graph"
    ) -> "Graph":
        array = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        if num_nodes is None:
            num_nodes = int(array.max()) + 1 if array.size else 1
        return cls(num_nodes=num_nodes, edges=array, name=name)

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def degrees(self) -> np.ndarray:
        """Degree of every node (length ``num_nodes``), computed once."""
        if self._degrees is None:
            counts = np.zeros(self.num_nodes, dtype=np.int64)
            if self.edges.size:
                counts += np.bincount(self.edges[:, 0], minlength=self.num_nodes)
                counts += np.bincount(self.edges[:, 1], minlength=self.num_nodes)
            self._degrees = _freeze(counts)
        return self._degrees

    def max_degree(self) -> int:
        degrees = self.degrees()
        return int(degrees.max()) if degrees.size else 0

    def adjacency_lists(self) -> list[np.ndarray]:
        """Neighbour arrays per node (used by the join-based reference count)."""
        neighbours: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for u, v in self.edges:
            neighbours[int(u)].append(int(v))
            neighbours[int(v)].append(int(u))
        return [np.asarray(sorted(adj), dtype=np.int64) for adj in neighbours]

    # ------------------------------------------------------------------
    def truncate_degrees(self, threshold: int, rng: Optional[np.random.Generator] = None) -> "Graph":
        """Return a subgraph where every node keeps at most ``threshold`` edges.

        This is the naive truncation step of the TM baseline: edges incident
        to over-threshold nodes are dropped (uniformly at random when an rng
        is supplied, deterministically by edge order otherwise) until every
        degree is at most τ.  The decision rule is the greedy scan over the
        (shuffled) edge order; it is evaluated with the vectorized equivalent
        in :func:`_greedy_truncation`.
        """
        plan, kept = self._truncation(threshold, rng)
        keep = plan.edge_hub == -1  # the safe edges
        keep[kept] = True
        return Graph._from_canonical(
            self.num_nodes,
            self.edges[keep],
            name=f"{self.name}|trunc{threshold}",
            degrees=self._truncated_degrees(plan, kept),
        )

    def truncated_degree_sequence(
        self, threshold: int, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Degree sequence of :meth:`truncate_degrees` without materialising
        the subgraph (sufficient for degree-based star counting)."""
        return self._truncated_degrees(*self._truncation(threshold, rng))

    def _truncation(
        self, threshold: int, rng: Optional[np.random.Generator]
    ) -> tuple[_TruncationPlan, np.ndarray]:
        """The plan at ``threshold`` and the non-safe edges one trial keeps."""
        if threshold < 0:
            raise DataGenerationError("truncation threshold must be non-negative")
        order = np.arange(self.num_edges)
        if rng is not None:
            order = rng.permutation(self.num_edges)
        threshold = int(threshold)
        plan = self._truncation_plans.get(threshold)
        if plan is None:
            plan = _TruncationPlan.build(self.edges, self.degrees(), threshold)
            self._truncation_plans[threshold] = plan
        return plan, _greedy_truncation(self.edges, threshold, order, plan)

    def _truncated_degrees(self, plan: _TruncationPlan, kept: np.ndarray) -> np.ndarray:
        ends = np.take(self.edges, kept, axis=0).ravel()
        return plan.safe_degrees + np.bincount(ends, minlength=self.num_nodes)

    # ------------------------------------------------------------------
    def as_edge_table(self, symmetric: bool = True) -> Table:
        """The relational ``Edge(from_id, to_id)`` view of the graph.

        With ``symmetric=True`` every undirected edge produces both directed
        rows, matching how the SQL self-join queries of the appendix count
        stars around each centre node.
        """
        if symmetric and self.edges.size:
            from_ids = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
            to_ids = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
        else:
            from_ids = self.edges[:, 0] if self.edges.size else np.zeros(0, dtype=np.int64)
            to_ids = self.edges[:, 1] if self.edges.size else np.zeros(0, dtype=np.int64)
        return Table(
            "Edge",
            [
                Column(name="from_id", values=from_ids),
                Column(name="to_id", values=to_ids),
            ],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph({self.name!r}, nodes={self.num_nodes}, edges={self.num_edges})"
