"""Tests for the graph substrate: edge tables, k-star counting, generators."""

import numpy as np
import pytest

from repro.exceptions import DataGenerationError, QueryError
from repro.graph.edge_table import Graph
from repro.graph.generators import amazon_like, deezer_like, powerlaw_graph
from repro.graph.kstar import (
    KStarQuery,
    kstar_count,
    kstar_count_by_join,
    per_node_star_counts,
)


@pytest.fixture()
def path_graph():
    # 0-1-2-3: degrees 1, 2, 2, 1.
    return Graph.from_edge_list([(0, 1), (1, 2), (2, 3)], num_nodes=4, name="path")


@pytest.fixture()
def star_graph():
    # Node 0 connected to 1..5: degree 5 centre, five leaves of degree 1.
    return Graph.from_edge_list([(0, i) for i in range(1, 6)], num_nodes=6, name="star")


class TestGraph:
    def test_basic_counts(self, path_graph):
        assert path_graph.num_nodes == 4
        assert path_graph.num_edges == 3
        assert list(path_graph.degrees()) == [1, 2, 2, 1]
        assert path_graph.max_degree() == 2

    def test_canonicalisation_removes_duplicates_and_loops(self):
        graph = Graph.from_edge_list([(0, 1), (1, 0), (2, 2), (1, 2)], num_nodes=3)
        assert graph.num_edges == 2

    def test_canonicalisation_matches_row_unique(self):
        # Reference: the row-sorting np.unique(axis=0) over (min, max) pairs.
        rng = np.random.default_rng(8)
        for _ in range(150):
            num_nodes = int(rng.integers(1, 60))
            raw = rng.integers(0, num_nodes, size=(int(rng.integers(0, 300)), 2))
            low, high = raw.min(axis=1), raw.max(axis=1)
            expected = np.unique(np.stack([low, high], axis=1)[low != high], axis=0)
            edges = Graph(num_nodes, raw).edges
            assert edges.dtype == np.int64 and edges.shape == expected.shape
            assert np.array_equal(edges, expected)

    def test_invalid_edges_rejected(self):
        with pytest.raises(DataGenerationError):
            Graph(num_nodes=2, edges=np.array([[0, 5]]))
        with pytest.raises(DataGenerationError):
            Graph(num_nodes=0, edges=np.zeros((0, 2)))
        with pytest.raises(DataGenerationError):
            Graph(num_nodes=3, edges=np.array([[0, 1, 2]]))

    def test_adjacency_lists(self, star_graph):
        adjacency = star_graph.adjacency_lists()
        assert list(adjacency[0]) == [1, 2, 3, 4, 5]
        assert list(adjacency[3]) == [0]

    def test_edge_table_symmetric_view(self, path_graph):
        table = path_graph.as_edge_table(symmetric=True)
        assert table.num_rows == 2 * path_graph.num_edges
        asymmetric = path_graph.as_edge_table(symmetric=False)
        assert asymmetric.num_rows == path_graph.num_edges

    def test_truncate_degrees(self, star_graph):
        truncated = star_graph.truncate_degrees(2)
        assert truncated.max_degree() <= 2
        assert truncated.num_nodes == star_graph.num_nodes

    def test_truncate_with_rng(self, star_graph):
        truncated = star_graph.truncate_degrees(3, rng=np.random.default_rng(1))
        assert truncated.max_degree() <= 3

    def test_truncate_negative_threshold_rejected(self, star_graph):
        with pytest.raises(DataGenerationError):
            star_graph.truncate_degrees(-1)


class TestKStarCounting:
    def test_star_graph_counts(self, star_graph):
        # Centre of degree 5: C(5,2)=10 2-stars, C(5,3)=10 3-stars.
        assert kstar_count(star_graph, KStarQuery(k=2)) == 10.0
        assert kstar_count(star_graph, KStarQuery(k=3)) == 10.0

    def test_path_graph_counts(self, path_graph):
        # Two nodes of degree 2 contribute one 2-star each.
        assert kstar_count(path_graph, KStarQuery(k=2)) == 2.0
        assert kstar_count(path_graph, KStarQuery(k=3)) == 0.0

    def test_range_restriction(self, star_graph):
        # Excluding the centre node removes every 2-star.
        assert kstar_count(star_graph, KStarQuery(k=2, low=1, high=5)) == 0.0
        assert kstar_count(star_graph, KStarQuery(k=2, low=0, high=0)) == 10.0

    def test_empty_range(self, star_graph):
        query = KStarQuery(k=2, low=3, high=3)
        assert kstar_count(star_graph, query) == 0.0

    def test_invalid_query(self):
        with pytest.raises(QueryError):
            KStarQuery(k=0)
        with pytest.raises(QueryError):
            KStarQuery(k=2, low=5, high=1)

    def test_per_node_star_counts(self):
        counts = per_node_star_counts(np.array([0, 1, 3, 5]), 2)
        assert list(counts) == [0.0, 0.0, 3.0, 10.0]

    def test_join_based_reference_agrees(self, small_graph):
        for k in (2, 3):
            query = KStarQuery(k=k)
            assert kstar_count(small_graph, query) == kstar_count_by_join(small_graph, query)

    def test_join_based_reference_respects_range(self, small_graph):
        query = KStarQuery(k=2, low=0, high=small_graph.num_nodes // 2)
        assert kstar_count(small_graph, query) == kstar_count_by_join(small_graph, query)

    def test_join_based_reference_rejects_large_graphs(self):
        graph = powerlaw_graph(2000, 6000, rng=1)
        with pytest.raises(QueryError):
            kstar_count_by_join(graph, KStarQuery(k=2), max_edges=1000)

    def test_query_label(self):
        assert KStarQuery(k=2).label == "Q2*"
        assert KStarQuery(k=3, name="custom").label == "custom"


class TestGenerators:
    def test_powerlaw_graph_size(self):
        graph = powerlaw_graph(num_nodes=1000, num_edges=3000, rng=5)
        assert graph.num_nodes == 1000
        assert 2000 < graph.num_edges <= 3100

    def test_powerlaw_heavy_tail(self):
        graph = powerlaw_graph(num_nodes=5000, num_edges=15000, rng=7)
        degrees = graph.degrees()
        assert degrees.max() > 5 * degrees.mean()

    def test_reproducible_with_seed(self):
        a = powerlaw_graph(500, 1500, rng=3)
        b = powerlaw_graph(500, 1500, rng=3)
        assert np.array_equal(a.edges, b.edges)

    def test_invalid_parameters(self):
        with pytest.raises(DataGenerationError):
            powerlaw_graph(1, 10)
        with pytest.raises(DataGenerationError):
            powerlaw_graph(10, 0)

    def test_deezer_and_amazon_scaling(self):
        deezer = deezer_like(rng=1, scale=0.01)
        amazon = amazon_like(rng=1, scale=0.01)
        assert deezer.num_nodes == 1440
        assert amazon.num_nodes == 3350
        with pytest.raises(DataGenerationError):
            deezer_like(scale=0.0)
