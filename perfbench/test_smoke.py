"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(cwd, workload, trace, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_without_errors(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "error_rate: 0 " in proc.stdout


@pytest.mark.parametrize("workload", ("pfail", "trace"))
def test_exact_counts_repeat_for_a_seed(workload):
    counts = []
    for _ in range(2):
        proc = _run(ROOT, workload, 1, seed=5)
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counts.append({
            k: v["value"] for k, v in metrics.items()
            if k.startswith(("sim.events_per_run.", "sim.attempts_per_run.", "sim.failed_runs."))
        })
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "figures", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
