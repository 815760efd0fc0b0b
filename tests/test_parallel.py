"""Determinism suite for the parallel trial runner and the seeding scheme.

The contracts under test (see docs/RUNNER.md):

* ``jobs=1`` and ``jobs=N`` produce identical experiment rows and CSVs
  (timing columns excluded — wall-clock measurements are not reproducible by
  definition).
* Every cell's random stream is a pure, collision-free function of its label.
* The cached-table skew sampler draws from the same distribution as
  ``Generator.choice`` and is exactly reproducible per seed.
"""

import csv
import dataclasses
import io
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats

from repro.datagen.distributions import key_sampler
from repro.db.cache import active_backend
from repro.evaluation.experiments import figure7, figure9, table1, table2
from repro.evaluation.experiments.common import ExperimentConfig, cell_stream
from repro.evaluation.parallel import (
    StarCell,
    TrialScheduler,
    active_scheduler,
    evaluation_session,
    run_star_cell,
    scheduler_for,
)
from repro.rng import ensure_rng, spawn


@pytest.fixture()
def tiny_config():
    return ExperimentConfig(
        epsilons=(0.1, 1.0), trials=2, scale_factor=1.0, rows_per_scale_factor=6000, seed=11
    )


def _strip_times(result):
    """Rows without their wall-clock columns (not reproducible run to run)."""
    return [{k: v for k, v in row.items() if k != "mean_time_s"} for row in result.rows]


class TestScheduler:
    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            TrialScheduler(0)

    def test_serial_map_preserves_order(self):
        assert TrialScheduler(1).map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_map_preserves_order(self):
        # A picklable module-level callable: abs.
        assert TrialScheduler(2).map(abs, list(range(-20, 0))) == list(range(20, 0, -1))


class TestJobsDeterminism:
    """(a) ``--jobs 1`` and ``--jobs 4`` produce identical experiment CSVs."""

    @pytest.mark.parametrize(
        "driver,kwargs",
        [
            (table1, {"query_names": ("Qc1", "Qs2", "Qg2")}),
            (table2, {"graph_scale": 0.02}),
            (figure7, {"distributions": ("uniform", "gamma"), "scales": (0.5,)}),
        ],
        ids=["table1", "table2", "figure7"],
    )
    def test_rows_identical_across_jobs(self, tiny_config, driver, kwargs):
        serial = driver.run(dataclasses.replace(tiny_config, jobs=1), **kwargs)
        parallel = driver.run(dataclasses.replace(tiny_config, jobs=4), **kwargs)
        assert _strip_times(serial) == _strip_times(parallel)

    def test_csv_identical_across_jobs(self, tiny_config, tmp_path):
        paths = {}
        for jobs in (1, 4):
            result = table1.run(
                dataclasses.replace(tiny_config, jobs=jobs), query_names=("Qc2", "Qs3")
            )
            paths[jobs] = result.to_csv(tmp_path / f"table1_jobs{jobs}.csv")
        rows = {}
        for jobs, path in paths.items():
            with path.open() as handle:
                rows[jobs] = [
                    {k: v for k, v in row.items() if k != "mean_time_s"}
                    for row in csv.DictReader(handle)
                ]
        assert rows[1] == rows[4]


class TestCellStreams:
    """(b) per-cell streams are collision-free across all experiment cells."""

    def test_streams_unique_across_table1_and_table2(self, tiny_config):
        config = dataclasses.replace(tiny_config, epsilons=(0.1, 0.2, 0.5, 0.8, 1.0))
        labels = [cell.stream for cell in table1.cells(config)]
        labels += [cell.stream for cell in table2.cells(config)]
        assert len(labels) == len(set(labels))
        keys = {cell_stream(config.seed, *label).spawn_key for label in labels}
        assert len(keys) == len(labels)
        # The streams themselves disagree from the very first draw.
        first_draws = {
            ensure_rng(cell_stream(config.seed, *label)).integers(0, 2**63) for label in labels
        }
        assert len(first_draws) == len(labels)

    def test_stream_is_pure_function_of_label(self):
        a = spawn(cell_stream(7, "table1", 0.5, "PM", "Qc1"), 3)
        b = spawn(cell_stream(7, "table1", 0.5, "PM", "Qc1"), 3)
        for rng_a, rng_b in zip(a, b):
            assert rng_a.integers(0, 2**63) == rng_b.integers(0, 2**63)

    def test_stream_depends_on_every_label_part(self):
        base = cell_stream(7, "table1", 0.5, "PM", "Qc1")
        assert cell_stream(8, "table1", 0.5, "PM", "Qc1").entropy != base.entropy
        for variant in (
            cell_stream(7, "table2", 0.5, "PM", "Qc1"),
            cell_stream(7, "table1", 0.8, "PM", "Qc1"),
            cell_stream(7, "table1", 0.5, "R2T", "Qc1"),
            cell_stream(7, "table1", 0.5, "PM", "Qc2"),
        ):
            assert variant.spawn_key != base.spawn_key

    def test_star_cell_reproducible_in_isolation(self, tiny_config):
        """A cell's result does not depend on which other cells ran before."""
        from repro.evaluation.experiments.common import build_ssb_database
        from repro.workloads.ssb_queries import ssb_query

        cell = StarCell(
            mechanism="PM",
            epsilon=0.5,
            query_builder=ssb_query,
            query_args=("Qc2",),
            database_builder=build_ssb_database,
            database_args=(tiny_config,),
            stream=("isolated", 0.5, "PM", "Qc2"),
        )
        first = run_star_cell(tiny_config, cell)
        second = run_star_cell(tiny_config, cell)
        assert first.relative_errors == second.relative_errors


def _canonical_csv(result, tmp_path, label: str) -> str:
    """The experiment CSV as canonical text, wall-clock columns dropped
    (timings are not reproducible by definition; everything else must be
    byte-identical across backends and job counts)."""
    path = result.to_csv(tmp_path / f"{label}.csv")
    with path.open(newline="") as handle:
        rows = [
            {k: v for k, v in row.items() if k != "mean_time_s"}
            for row in csv.DictReader(handle)
        ]
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


class TestBackendParity:
    """Experiment CSVs are byte-identical across cache backends and job
    counts: ``local`` serial is the reference, every (backend, jobs)
    combination — including the out-of-process cache server, named by URL
    or embedded for the run (``embedded``) — must reproduce it exactly."""

    QUERIES = ("Qc1", "Qs2", "Qg2")

    def _table1_csv(self, config, tmp_path, label):
        with evaluation_session(config):
            result = table1.run(config, query_names=self.QUERIES)
        return _canonical_csv(result, tmp_path, label)

    @contextmanager
    def _configured(self, tiny_config, tmp_path, backend, jobs):
        """A config for (backend, jobs); 'remote' gets a live cache server,
        'embedded' a ``cache_path`` the session starts a server on."""
        if backend == "embedded":
            yield dataclasses.replace(
                tiny_config,
                jobs=jobs,
                cache_backend="remote",
                cache_path=str(tmp_path / "cache.db"),
            )
        elif backend == "remote":
            from repro.db.cache.server import CacheServerThread

            with CacheServerThread(max_entries=4096) as handle:
                yield dataclasses.replace(
                    tiny_config,
                    jobs=jobs,
                    cache_backend="remote",
                    cache_url=f"127.0.0.1:{handle.server.port}",
                )
        else:
            yield dataclasses.replace(tiny_config, jobs=jobs, cache_backend=backend)

    @pytest.mark.parametrize("backend", ["local", "remote", "embedded"])
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_csv_identical_to_serial_local_run(self, tiny_config, tmp_path, backend, jobs):
        reference = self._table1_csv(
            dataclasses.replace(tiny_config, jobs=1, cache_backend="local"),
            tmp_path,
            "reference",
        )
        with self._configured(tiny_config, tmp_path, backend, jobs) as config:
            variant = self._table1_csv(config, tmp_path, f"{backend}-j{jobs}")
        assert variant == reference

    def test_embedded_server_scores_cross_worker_hits(self, tiny_config, tmp_path):
        with self._configured(tiny_config, tmp_path, "embedded", jobs=4) as config:
            with evaluation_session(config):
                table1.run(config, query_names=self.QUERIES)
                stats = active_backend().stats()
        assert stats.shared_puts > 0
        assert stats.shared_hits > 0  # some worker was served by another's work

    def test_remote_backend_scores_cross_process_hits(self, tiny_config, tmp_path):
        """Forked workers reconnect to the cache server and exchange
        artefacts through it."""
        with self._configured(tiny_config, tmp_path, "remote", jobs=4) as config:
            with evaluation_session(config):
                table1.run(config, query_names=self.QUERIES)
                stats = active_backend().stats()
        assert stats.shared_puts > 0
        assert stats.shared_hits > 0  # some process was served by another's work


class TestRunWideScheduler:
    """One evaluation session == one worker pool for the whole run."""

    def test_session_scheduler_is_shared_by_drivers(self, tiny_config):
        assert active_scheduler() is None
        with evaluation_session(tiny_config) as scheduler:
            assert active_scheduler() is scheduler
            assert scheduler_for(tiny_config) is scheduler
        assert active_scheduler() is None
        transient = scheduler_for(tiny_config)
        assert transient is not scheduler and not transient.persistent

    def test_single_pool_serves_multiple_experiments(self, tiny_config):
        config = dataclasses.replace(tiny_config, jobs=2)
        before = TrialScheduler.pools_created
        with evaluation_session(config):
            table1.run(config, query_names=("Qc1", "Qc2"))
            figure9.run(config)
        assert TrialScheduler.pools_created - before == 1

    def test_serial_session_creates_no_pool(self, tiny_config):
        before = TrialScheduler.pools_created
        with evaluation_session(dataclasses.replace(tiny_config, jobs=1)):
            table1.run(tiny_config, query_names=("Qc1",))
        assert TrialScheduler.pools_created == before

    def test_transient_scheduler_still_pools_per_map(self):
        before = TrialScheduler.pools_created
        scheduler = TrialScheduler(2)
        assert scheduler.map(abs, [-1, -2, -3]) == [1, 2, 3]
        assert scheduler.map(abs, [-4, -5, -6]) == [4, 5, 6]
        assert TrialScheduler.pools_created - before == 2

    def test_persistent_scheduler_reuses_one_pool(self):
        before = TrialScheduler.pools_created
        with TrialScheduler(2, persistent=True) as scheduler:
            assert scheduler.map(abs, [-1, -2, -3]) == [1, 2, 3]
            assert scheduler.map(abs, [-4, -5, -6]) == [4, 5, 6]
        assert TrialScheduler.pools_created - before == 1

    def test_nested_sessions_restore_outer(self, tiny_config, tmp_path):
        with evaluation_session(tiny_config) as outer:
            inner_config = dataclasses.replace(
                tiny_config, cache_backend="remote", cache_path=str(tmp_path / "cache.db")
            )
            with evaluation_session(inner_config) as inner:
                assert active_scheduler() is inner
                assert active_backend().name == "remote"
            assert active_scheduler() is outer
            assert active_backend().name == "local"


class TestCachedSkewSampler:
    """(c) the cached-table sampler matches ``Generator.choice`` and is
    exactly reproducible per seed."""

    SIZE = 400
    COUNT = 40_000

    @pytest.mark.parametrize("name", ["exponential", "gamma", "zipf", "gaussian_mixture"])
    def test_sample_matches_choice_distribution(self, name):
        sampler = key_sampler(name)
        probabilities = sampler.probabilities(self.SIZE)
        ours = sampler.sample(self.SIZE, self.COUNT, rng=101)
        reference = ensure_rng(202).choice(self.SIZE, size=self.COUNT, p=probabilities)
        statistic, p_value = stats.ks_2samp(ours, reference)
        assert p_value > 0.01, f"{name}: KS statistic {statistic} (p={p_value})"

    @pytest.mark.parametrize("name", ["exponential", "gamma", "zipf"])
    def test_sample_via_cdf_matches_sample_distribution(self, name):
        sampler = key_sampler(name)
        alias_draw = sampler.sample(self.SIZE, self.COUNT, rng=303)
        cdf_draw = sampler.sample_via_cdf(self.SIZE, self.COUNT, rng=404)
        statistic, p_value = stats.ks_2samp(alias_draw, cdf_draw)
        assert p_value > 0.01, f"{name}: KS statistic {statistic} (p={p_value})"

    def test_exact_reproducibility_per_seed(self):
        sampler = key_sampler("gamma")
        for draw in (sampler.sample, sampler.sample_via_cdf):
            first = draw(self.SIZE, 1000, rng=55)
            second = draw(self.SIZE, 1000, rng=55)
            np.testing.assert_array_equal(first, second)
        assert not np.array_equal(
            sampler.sample(self.SIZE, 1000, rng=55), sampler.sample(self.SIZE, 1000, rng=56)
        )

    def test_probability_vector_built_once_per_size(self):
        """Regression: ``probabilities`` used to rebuild and renormalise the
        vector on every ``sample`` call (quadratic-ish skew datagen)."""
        from repro.datagen.distributions import KeySampler

        calls = []

        def probability_fn(size):
            calls.append(size)
            return np.arange(1, size + 1, dtype=np.float64)

        sampler = KeySampler("counting", probability_fn)
        for _ in range(5):
            sampler.sample(64, 100, rng=1)
            sampler.probabilities(64)
            sampler.cdf(64)
        assert calls == [64]
        sampler.sample(128, 100, rng=1)
        assert calls == [64, 128]

    def test_cdf_matches_probabilities(self):
        sampler = key_sampler("zipf")
        cdf = sampler.cdf(50)
        np.testing.assert_allclose(np.diff(cdf), sampler.probabilities(50)[1:], atol=1e-12)
        assert cdf[-1] == 1.0


class TestGracefulShutdown:
    """Interrupts terminate the worker pool instead of stranding it."""

    def test_terminate_without_pool_is_a_noop(self):
        TrialScheduler(2, persistent=True).terminate()

    def test_terminate_leaves_no_orphan_workers(self):
        scheduler = TrialScheduler(2, persistent=True)
        assert scheduler.map(abs, list(range(-8, 0))) == list(range(8, 0, -1))
        processes = list(scheduler._pool._processes.values())
        assert processes and all(p.is_alive() for p in processes)
        scheduler.terminate()
        assert all(not p.is_alive() for p in processes)
        # The scheduler stays usable: the next map forks a fresh pool.
        assert scheduler.map(abs, [-3, -1]) == [3, 1]
        scheduler.close()

    def test_interrupted_session_terminates_workers(self, tiny_config):
        from repro.db.cache import active_backend

        config = ExperimentConfig(
            epsilons=tiny_config.epsilons,
            trials=tiny_config.trials,
            rows_per_scale_factor=tiny_config.rows_per_scale_factor,
            seed=tiny_config.seed,
            jobs=2,
        )
        before = active_backend()
        with pytest.raises(KeyboardInterrupt):
            with evaluation_session(config) as scheduler:
                scheduler.map(abs, list(range(-8, 0)))
                processes = list(scheduler._pool._processes.values())
                assert all(p.is_alive() for p in processes)
                raise KeyboardInterrupt
        assert all(not p.is_alive() for p in processes)
        # Teardown still restored the previously active backend.
        assert active_backend() is before
        assert active_scheduler() is None
