"""Tests for the experiment CLI."""

import pytest

from repro.evaluation.cli import EXPERIMENTS, main, run_experiments
from repro.evaluation.experiments import ExperimentConfig


@pytest.fixture()
def tiny_config():
    return ExperimentConfig(
        epsilons=(0.5,), trials=1, scale_factor=1.0, rows_per_scale_factor=4000, seed=3
    )


class TestRegistry:
    def test_all_tables_and_figures_registered(self):
        assert set(EXPERIMENTS) == {
            "table1",
            "table2",
            "figure4",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
            "figure11",
        }


class TestRunExperiments:
    def test_unknown_name_rejected_before_running(self, tiny_config):
        with pytest.raises(KeyError):
            run_experiments(["table1", "figure99"], tiny_config, echo=lambda _: None)

    def test_runs_and_writes_csv(self, tiny_config, tmp_path):
        messages = []
        results = run_experiments(
            ["figure9"], tiny_config, output_dir=tmp_path, echo=messages.append
        )
        assert "figure9" in results
        assert (tmp_path / "figure9.csv").exists()
        assert any("figure9" in message for message in messages)


class TestMain:
    def test_main_with_single_quick_experiment(self, tmp_path, monkeypatch, capsys):
        exit_code = main(
            [
                "--only",
                "figure9",
                "--trials",
                "1",
                "--rows-per-scale-factor",
                "4000",
                "--output-dir",
                str(tmp_path),
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Figure 9" in captured.out
        assert (tmp_path / "figure9.csv").exists()

    def test_main_unknown_experiment_returns_error_code(self, capsys):
        assert main(["--only", "not-an-experiment"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_main_rejects_invalid_cache_size(self, capsys):
        assert main(["--only", "figure9", "--cache-size", "0"]) == 2
        assert "--cache-size" in capsys.readouterr().err

    def test_main_cache_stats_reports_counters(self, capsys, tmp_path):
        exit_code = main(
            [
                "--only",
                "figure9",
                "--trials",
                "1",
                "--rows-per-scale-factor",
                "4000",
                "--cache-backend",
                "remote",
                "--cache-path",
                str(tmp_path / "cache.db"),
                "--cache-stats",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "[cache after figure9:" in out
        assert "[cache backend 'remote' (run total):" in out
        assert "hits=" in out

    def test_cache_stats_flags_parent_only_counters_for_local_jobs(self, capsys):
        exit_code = main(
            [
                "--only",
                "figure9",
                "--trials",
                "1",
                "--rows-per-scale-factor",
                "4000",
                "--jobs",
                "2",
                "--cache-stats",
            ]
        )
        assert exit_code == 0
        assert "parent process only" in capsys.readouterr().out
