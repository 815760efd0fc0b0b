"""Tests for the DP k-star mechanisms (PM, R2T, TM on graphs)."""

import numpy as np
import pytest

from repro.dp.noise import cauchy_noise
from repro.dp.sensitivity import smooth_sensitivity_truncated_kstar
from repro.graph.dp_kstar import KStarPM, KStarR2T, KStarTM
from repro.graph.edge_table import Graph
from repro.graph.kstar import KStarQuery, kstar_count, per_node_star_counts
from repro.exceptions import PrivacyBudgetError


@pytest.fixture()
def query(small_graph):
    return KStarQuery(k=2, low=0, high=small_graph.num_nodes - 1, name="Q2*")


class TestKStarPM:
    def test_requires_positive_epsilon(self):
        with pytest.raises(PrivacyBudgetError):
            KStarPM(epsilon=0.0)

    def test_answer_is_a_valid_restricted_count(self, small_graph, query):
        """PM answers an exact count over some noisy node range, so the value
        must lie between 0 and the full-range count."""
        full = kstar_count(small_graph, query)
        mechanism = KStarPM(epsilon=0.5)
        for seed in range(10):
            value = mechanism.answer_value(small_graph, query, rng=seed)
            assert 0.0 <= value <= full

    def test_reproducible(self, small_graph, query):
        a = KStarPM(epsilon=0.5).answer_value(small_graph, query, rng=9)
        b = KStarPM(epsilon=0.5).answer_value(small_graph, query, rng=9)
        assert a == b

    def test_partial_range_query(self, small_graph):
        query = KStarQuery(k=2, low=0, high=small_graph.num_nodes // 3)
        value = KStarPM(epsilon=0.5).answer_value(small_graph, query, rng=4)
        assert value >= 0.0


class TestKStarR2T:
    def test_never_negative(self, small_graph, query):
        mechanism = KStarR2T(epsilon=0.5)
        for seed in range(5):
            assert mechanism.answer_value(small_graph, query, rng=seed) >= 0.0

    def test_never_far_above_truth(self, small_graph, query):
        exact = kstar_count(small_graph, query)
        mechanism = KStarR2T(epsilon=1.0, global_sensitivity_bound=2**20)
        values = [mechanism.answer_value(small_graph, query, rng=seed) for seed in range(10)]
        assert np.median(values) <= exact * 1.5

    def test_large_epsilon_approaches_truth(self, small_graph, query):
        exact = kstar_count(small_graph, query)
        mechanism = KStarR2T(epsilon=200.0, global_sensitivity_bound=2**16)
        value = mechanism.answer_value(small_graph, query, rng=3)
        assert value == pytest.approx(exact, rel=0.25)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            KStarR2T(epsilon=1.0, alpha=0.0)


class TestKStarTM:
    def test_threshold_quantile_validation(self):
        with pytest.raises(ValueError):
            KStarTM(epsilon=1.0, threshold_quantile=1.5)

    def test_answer_is_float(self, small_graph, query):
        value = KStarTM(epsilon=0.5).answer_value(small_graph, query, rng=1)
        assert isinstance(value, float)

    def test_explicit_threshold_controls_bias(self, small_graph, query):
        """With a threshold above the maximum degree and a huge ε the
        truncated count equals the exact count (note that the smooth
        sensitivity still grows with the threshold, so ε must dominate it)."""
        exact = kstar_count(small_graph, query)
        threshold = small_graph.max_degree()
        mechanism = KStarTM(epsilon=1e9, threshold=threshold)
        assert mechanism.answer_value(small_graph, query, rng=2) == pytest.approx(exact, rel=0.01)

    def test_small_threshold_is_downward_biased(self, small_graph, query):
        exact = kstar_count(small_graph, query)
        mechanism = KStarTM(epsilon=1e6, threshold=1)
        assert mechanism.answer_value(small_graph, query, rng=2) < exact

    def test_threshold_is_the_degree_quantile_per_quantile(self, small_graph):
        degrees = small_graph.degrees()
        positive = degrees[degrees > 0]
        for quantile in (0.5, 0.9, 0.99, 0.5, 1.0):
            expected = int(max(np.quantile(positive, quantile), 1))
            mechanism = KStarTM(epsilon=1.0, threshold_quantile=quantile)
            assert mechanism._pick_threshold(small_graph) == expected
        assert KStarTM(epsilon=1.0, threshold=7)._pick_threshold(small_graph) == 7

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_answer_matches_per_node_counts_of_truncated_degrees(self, small_graph, k):
        """The C(d, k) table prices truncated degrees exactly as
        per_node_star_counts does, so the answer is the same float."""
        query = KStarQuery(k=k, low=3, high=small_graph.num_nodes - 5)
        mechanism = KStarTM(epsilon=0.5)
        threshold = mechanism._pick_threshold(small_graph)
        beta = mechanism.epsilon / (2.0 * (mechanism.gamma + 1.0))
        smooth = smooth_sensitivity_truncated_kstar(threshold, k, beta)
        for seed in range(5):
            generator = np.random.default_rng(seed)
            degrees = small_graph.truncated_degree_sequence(threshold, rng=generator)
            counts = per_node_star_counts(degrees, k)
            expected = float(counts[query.low : query.high + 1].sum()) + cauchy_noise(
                smooth, mechanism.epsilon, gamma=mechanism.gamma, rng=generator
            )
            answer = mechanism.answer_value(small_graph, query, rng=np.random.default_rng(seed))
            assert answer == expected


class TestComparativeBehaviour:
    def test_pm_is_fastest(self, query):
        """Table 2's efficiency claim: PM does not need truncation passes."""
        import time

        graph = Graph(
            num_nodes=20_000,
            edges=np.random.default_rng(0).integers(0, 20_000, size=(60_000, 2)),
            name="timing",
        )
        timings = {}
        for name, mechanism in (
            ("PM", KStarPM(epsilon=0.5)),
            ("R2T", KStarR2T(epsilon=0.5)),
            ("TM", KStarTM(epsilon=0.5)),
        ):
            start = time.perf_counter()
            mechanism.answer_value(graph, KStarQuery(k=2), rng=1)
            timings[name] = time.perf_counter() - start
        assert timings["PM"] <= timings["TM"]
