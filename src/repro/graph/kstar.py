"""Exact k-star counting.

A k-star is a centre node together with k distinct neighbours; the k-star
count of a graph is ``Σ_v C(deg(v), k)``.  The paper's queries Q2* and Q3*
(Appendix A.2) additionally restrict the centre node to a contiguous id range
``from_id BETWEEN low AND high`` — that range is the query's predicate and its
domain size is the number of vertices, which is what PM perturbs.

Two counting implementations are provided: the fast degree-based one used by
all mechanisms, and a join-based reference that literally enumerates the
self-join the SQL queries describe (only viable on small graphs; used by the
test suite to validate the degree formula).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

import numpy as np

from repro.exceptions import QueryError
from repro.graph.edge_table import Graph

__all__ = [
    "KStarQuery",
    "kstar_count",
    "kstar_count_by_join",
    "per_node_star_counts",
    "star_count_prefix",
    "star_count_table",
]


@dataclass(frozen=True)
class KStarQuery:
    """A k-star counting query with a centre-node range predicate.

    ``low`` / ``high`` are inclusive node ids; ``None`` means the respective
    end of the full node range.  The predicate's domain size is the graph's
    number of vertices.
    """

    k: int
    low: Optional[int] = None
    high: Optional[int] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.k < 1:
            raise QueryError("k-star queries require k >= 1")
        if self.low is not None and self.high is not None and self.low > self.high:
            raise QueryError(f"k-star query range [{self.low}, {self.high}] is reversed")

    def resolved_range(self, num_nodes: int) -> tuple[int, int]:
        low = 0 if self.low is None else max(int(self.low), 0)
        high = num_nodes - 1 if self.high is None else min(int(self.high), num_nodes - 1)
        return low, high

    @property
    def label(self) -> str:
        return self.name or f"Q{self.k}*"


def per_node_star_counts(degrees: np.ndarray, k: int) -> np.ndarray:
    """``C(deg(v), k)`` for every node, as float64 (counts can be huge)."""
    degrees = np.asarray(degrees, dtype=np.int64)
    unique_degrees, inverse = np.unique(degrees, return_inverse=True)
    per_degree = np.array(
        [float(math.comb(int(d), k)) if d >= k else 0.0 for d in unique_degrees],
        dtype=np.float64,
    )
    return per_degree[inverse]


@lru_cache(maxsize=64)
def star_count_table(max_degree: int, k: int) -> np.ndarray:
    """``C(d, k)`` for ``d = 0 .. max_degree``, as float64, read-only.

    Indexing it with a degree sequence bounded by ``max_degree`` (a truncated
    one) gives each node the same float as :func:`per_node_star_counts`,
    without sorting the sequence.
    """
    table = np.array(
        [float(math.comb(d, k)) if d >= k else 0.0 for d in range(max_degree + 1)],
        dtype=np.float64,
    )
    table.flags.writeable = False
    return table


def star_count_prefix(graph: Graph, k: int) -> np.ndarray:
    """Prefix sums of the per-node k-star counts, cached on the graph.

    ``prefix[i]`` is the k-star count over centre nodes ``0 .. i-1``, so any
    centre-node range restriction is answered in O(1) — which is what makes
    repeated PM trials (each with a different noisy range) cheap.  Counts are
    integers represented exactly in float64 for any realistic graph, so the
    prefix difference equals the direct sum.
    """
    prefix = graph._star_prefix_cache.get(k)
    if prefix is None:
        counts = per_node_star_counts(graph.degrees(), k)
        prefix = np.concatenate([[0.0], np.cumsum(counts)])
        prefix.flags.writeable = False
        graph._star_prefix_cache[k] = prefix
    return prefix


def kstar_count(graph: Graph, query: KStarQuery) -> float:
    """Exact k-star count restricted to centre nodes in the query range."""
    low, high = query.resolved_range(graph.num_nodes)
    if low > high:
        return 0.0
    prefix = star_count_prefix(graph, query.k)
    return float(prefix[high + 1] - prefix[low])


def kstar_count_by_join(graph: Graph, query: KStarQuery, max_edges: int = 200_000) -> float:
    """Reference count by enumerating the self-join (small graphs only).

    Mirrors the SQL formulation: pick a centre node in the range, then choose
    k neighbours with strictly increasing ids (the ``to_id < to_id`` chain in
    the appendix queries removes permutations).
    """
    if graph.num_edges > max_edges:
        raise QueryError(
            f"join-based k-star counting is limited to {max_edges} edges; "
            f"graph has {graph.num_edges}"
        )
    low, high = query.resolved_range(graph.num_nodes)
    adjacency = graph.adjacency_lists()
    total = 0
    for centre in range(low, high + 1):
        neighbours = adjacency[centre]
        if neighbours.size < query.k:
            continue
        # Each sorted k-subset of neighbours is one k-star.
        total += sum(1 for _ in combinations(neighbours.tolist(), query.k))
    return float(total)
