"""Smoke tests of the benchmark itself, outside the repository's test suite.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs for two ops, traced and untraced, and the result object
must carry exactly the metrics BENCHMARK.json lists, with their units.
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
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--ops", "2"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_two_op_run_has_the_listed_metrics(workload, trace):
    result = result_of(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 2
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in listed)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_cell_calls_repeat_exactly(workload):
    counts = [result_of(run(workload, 1, seed=seed))["metrics"]["sampling.cell_calls"]["value"] for seed in (0, 1)]
    assert counts[0] == counts[1]
    # 20 sampler calls per pyramid level with the fb check, 16 with frozen masks
    assert counts[0] == (64.0 if workload.startswith("loss") else 80.0)


def test_layers_that_do_no_work_on_the_loss_workload_read_zero():
    metrics = result_of(run("loss-slanted-odd", 1))["metrics"]
    for name in ("masks.fb_check.calls", "optimize.step.calls", "sampling.pyramid_adjoint.calls"):
        assert metrics[name]["value"] == 0.0


def test_fails_without_the_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
