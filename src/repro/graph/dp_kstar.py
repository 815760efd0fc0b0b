"""DP mechanisms for k-star counting queries (paper Section 6, Table 2).

Three mechanisms are compared on Q2* / Q3*:

* :class:`KStarPM` — the Predicate Mechanism applied to the query's centre-node
  range predicate: both ends of the range are perturbed with Laplace noise
  scaled to the node-id domain (the number of vertices), and the k-star count
  is then computed exactly over the noisy range.
* :class:`KStarR2T` — Race-to-the-Top over per-centre-node contributions
  ``C(deg(v), k)``, with geometrically increasing truncation thresholds up to
  a public global-sensitivity bound.
* :class:`KStarTM` — naive truncation with smooth sensitivity: node degrees
  are capped at a threshold τ by dropping excess edges, the truncated count is
  released with general-Cauchy noise calibrated to the smooth sensitivity of
  the truncated query.

All three expose ``answer_value(graph, query, rng=None)``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.dp.noise import cauchy_noise, laplace_noise
from repro.dp.sensitivity import smooth_sensitivity_truncated_kstar
from repro.exceptions import PrivacyBudgetError
from repro.graph.edge_table import Graph
from repro.graph.kstar import KStarQuery, kstar_count, star_count_prefix, star_count_table
from repro.rng import RngLike, ensure_rng

__all__ = ["KStarPM", "KStarR2T", "KStarTM"]


class KStarPM:
    """Predicate Mechanism for k-star counting queries."""

    name = "PM"

    def __init__(self, epsilon: float, rng: RngLike = None):
        if epsilon <= 0:
            raise PrivacyBudgetError(f"ε must be positive, got {epsilon!r}")
        self.epsilon = float(epsilon)
        self._rng = ensure_rng(rng)

    def answer_value(self, graph: Graph, query: KStarQuery, rng: RngLike = None) -> float:
        generator = ensure_rng(rng) if rng is not None else self._rng
        low, high = query.resolved_range(graph.num_nodes)
        domain_size = graph.num_nodes
        # Range predicate: each endpoint is perturbed with Lap(2·|dom|/ε),
        # exactly as in Algorithm 2 (the k-star query has a single predicate,
        # so it receives the full budget).  Reversed draws are redrawn as in
        # the paper's while-loop, with a bounded retry count.
        sensitivity = 2.0 * domain_size
        noisy_low, noisy_high = low, high
        for _ in range(64):
            noisy_low = int(
                np.clip(np.rint(low + laplace_noise(sensitivity, self.epsilon, rng=generator)),
                        0, domain_size - 1)
            )
            noisy_high = int(
                np.clip(np.rint(high + laplace_noise(sensitivity, self.epsilon, rng=generator)),
                        0, domain_size - 1)
            )
            if noisy_low < noisy_high or domain_size == 1:
                break
        else:
            noisy_low, noisy_high = min(noisy_low, noisy_high), max(noisy_low, noisy_high)
        noisy_query = KStarQuery(k=query.k, low=noisy_low, high=noisy_high, name=query.name)
        return kstar_count(graph, noisy_query)


class KStarR2T:
    """Race-to-the-Top over per-node k-star contributions."""

    name = "R2T"

    def __init__(
        self,
        epsilon: float,
        alpha: float = 0.05,
        global_sensitivity_bound: Optional[float] = None,
        rng: RngLike = None,
    ):
        if epsilon <= 0:
            raise PrivacyBudgetError(f"ε must be positive, got {epsilon!r}")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"α must lie in (0, 1), got {alpha!r}")
        self.epsilon = float(epsilon)
        self.alpha = float(alpha)
        self.global_sensitivity_bound = global_sensitivity_bound
        self._rng = ensure_rng(rng)

    def _gs_bound(self, graph: Graph, query: KStarQuery) -> float:
        if self.global_sensitivity_bound is not None:
            return float(self.global_sensitivity_bound)
        # A public coarse bound: one node can centre at most C(n-1, k) stars.
        return float(max(math.comb(graph.num_nodes - 1, query.k), 2))

    def answer_value(self, graph: Graph, query: KStarQuery, rng: RngLike = None) -> float:
        generator = ensure_rng(rng) if rng is not None else self._rng
        low, high = query.resolved_range(graph.num_nodes)
        # Per-centre-node contributions from the cached prefix sums, so
        # repeated trials skip the per-node recount.
        contributions = np.diff(star_count_prefix(graph, query.k)[low : high + 2])

        gs_bound = self._gs_bound(graph, query)
        num_candidates = max(int(math.ceil(math.log2(gs_bound))), 1)
        log_gs = float(num_candidates)
        penalty_factor = log_gs * math.log(max(log_gs / self.alpha, math.e))
        per_candidate_epsilon = self.epsilon / num_candidates

        best = 0.0
        for j in range(1, num_candidates + 1):
            tau = float(2**j)
            truncated = float(np.minimum(contributions, tau).sum())
            noise = laplace_noise(tau, per_candidate_epsilon, rng=generator)
            candidate = truncated + noise - penalty_factor * tau / self.epsilon
            best = max(best, candidate)
        return float(max(best, 0.0))


class KStarTM:
    """Naive degree truncation with smooth sensitivity (TM)."""

    name = "TM"

    def __init__(
        self,
        epsilon: float,
        threshold: Optional[int] = None,
        threshold_quantile: float = 0.99,
        gamma: float = 4.0,
        rng: RngLike = None,
    ):
        if epsilon <= 0:
            raise PrivacyBudgetError(f"ε must be positive, got {epsilon!r}")
        if not 0.0 < threshold_quantile <= 1.0:
            raise ValueError("threshold_quantile must lie in (0, 1]")
        self.epsilon = float(epsilon)
        self.threshold = threshold
        self.threshold_quantile = float(threshold_quantile)
        self.gamma = float(gamma)
        self._rng = ensure_rng(rng)

    def _pick_threshold(self, graph: Graph) -> int:
        """τ: the fixed threshold, else the degree quantile, once per graph."""
        if self.threshold is not None:
            return int(self.threshold)
        threshold = graph._tm_thresholds.get(self.threshold_quantile)
        if threshold is None:
            degrees = graph.degrees()
            positive = degrees[degrees > 0]
            threshold = 1
            if positive.size:
                threshold = int(max(np.quantile(positive, self.threshold_quantile), 1))
            graph._tm_thresholds[self.threshold_quantile] = threshold
        return threshold

    def answer_value(self, graph: Graph, query: KStarQuery, rng: RngLike = None) -> float:
        generator = ensure_rng(rng) if rng is not None else self._rng
        threshold = self._pick_threshold(graph)

        # Naive truncation: drop edges of over-threshold nodes, then count.
        # Only the truncated degree sequence is needed for the degree-based
        # count, so the subgraph is never materialised; its degrees are all
        # ≤ τ (and ≤ the graph's maximum), so a C(d, k) table prices them.
        truncated_degrees = graph.truncated_degree_sequence(threshold, rng=generator)
        low, high = query.resolved_range(graph.num_nodes)
        table = star_count_table(min(threshold, graph.max_degree()), query.k)
        star_counts = table[truncated_degrees]
        truncated_count = float(star_counts[low : high + 1].sum()) if low <= high else 0.0

        beta = self.epsilon / (2.0 * (self.gamma + 1.0))
        smooth = smooth_sensitivity_truncated_kstar(threshold, query.k, beta)
        noise = cauchy_noise(smooth, self.epsilon, gamma=self.gamma, rng=generator)
        return float(truncated_count + noise)
