"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper through its
experiment driver, saves the rows as CSV under ``benchmarks/results/`` and
prints the text table so a ``pytest benchmarks/ --benchmark-only -s`` run
shows the reproduced numbers next to the timings.  The CSVs hold only the
deterministic columns, so a test run leaves the committed files unchanged.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.evaluation.experiments import ExperimentConfig
from repro.evaluation.reporting import ExperimentResult

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """The laptop-friendly configuration used by all benchmark runs."""
    return ExperimentConfig.quick()


@pytest.fixture(scope="session")
def full_config() -> ExperimentConfig:
    """A larger configuration for the scale-sensitive figures."""
    return ExperimentConfig(epsilons=(0.1, 0.5, 1.0), trials=3, rows_per_scale_factor=240_000)


@pytest.fixture()
def record_result():
    """Persist an ExperimentResult under benchmarks/results and echo it.

    The CSV leaves out ``mean_time_s`` — wall-clock time differs on every
    run, every other column is a pure function of the seed — while the
    printed table keeps it.
    """

    def _record(result: ExperimentResult, name: str) -> ExperimentResult:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        answers = [
            {key: value for key, value in row.items() if key != "mean_time_s"}
            for row in result.rows
        ]
        ExperimentResult(result.title, answers, result.notes).to_csv(
            RESULTS_DIR / f"{name}.csv"
        )
        print()
        print(result.to_text())
        return result

    return _record
