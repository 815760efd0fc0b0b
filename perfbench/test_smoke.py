"""Smoke test of the repository benchmark.

Every workload runs through the same code path as a real run, at tiny sizes
(``--smoke``): the correctness gates, the failure accounting and the metric
names and units that ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == ["grid", "serve_repeat", "serve_adhoc", "serve_shared"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    metrics = result_of(run(workload, 0))["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", ["grid", "serve_shared"])
def test_traced_run_reports_every_layer_metric(workload):
    proc = run(workload, 1)
    metrics = result_of(proc)["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert "dominant layer:" in proc.stdout


def test_correctness_gate_catches_a_changed_answer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import verify
    from loadgen import Outcome

    offline = verify.OfflineServing(rows=3_000, data_seed=3, server_seed=11)
    request = {"op": "query", "database": "bench", "mechanism": "PM", "epsilon": 0.5,
               "trials": 8, "analyst": "a", "query": "Qc1"}
    served = dict(offline.answer(request), privacy={"analyst": "a"}, mean_time_s=0.1)

    def outcome():
        line = json.dumps({"ok": True, "result": served}).encode()
        return Outcome(request, 0.0, 0.0, "ok", line)

    assert verify.check_served([outcome()], offline, 3, 1) == []
    served["answers"] = [served["answers"][0] + 1.0] + served["answers"][1:]
    assert verify.check_served([outcome()], offline, 3, 1)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("serve_repeat", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
