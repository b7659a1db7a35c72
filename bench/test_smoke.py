"""Smoke test of the benchmark itself, at its tiny size.

Run from the root of the repository:
    python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END  # noqa: E402
from tracer import COUNT_METRICS, LAYER_METRICS  # noqa: E402
from workloads import OUT, ROOT, WORKLOADS  # noqa: E402

SEED = 3


def bench(workload: str, trace: int, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_and_record(workload: str, trace: int):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result, record


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, record = result_and_record(workload, 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["extra"]["failed_ratio"][0] == 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_keeps_outputs_and_repeats_counts(workload):
    first, record = result_and_record(workload, 1)
    second, _ = result_and_record(workload, 1)
    assert record["trace"]["outputs_identical"] is True
    assert {k: v["unit"] for k, v in first["metrics"].items()} == {
        k: unit for k, (unit, _) in LAYER_METRICS.items()
    }
    for name in COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("tables-cold", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
