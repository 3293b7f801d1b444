"""Smoke test of the benchmark: one tiny pass of every workload.

Checks that every metric BENCHMARK.json names is printed with its unit,
that an op given a wrong expectation is counted as failed, that the
generator's reference differentiator is right, and that the benchmark
refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(root: Path, workload: str, trace: int, *extra: str):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)


def assert_metrics(stdout: str, result: dict, spec: list) -> None:
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"\n{m['name']}: " in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = run_bench(ROOT, workload, 0, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(proc.stdout, result, SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_counts_a_wrong_expectation(workload):
    proc = run_bench(ROOT, workload, 1, "--smoke", "--inject-fault")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] == 1
    assert "failed_ratio: " in proc.stdout
    assert_metrics(proc.stdout, result, SPEC["per_layer"])


def test_reference_differentiator():
    sys.path.insert(0, str(HERE))
    import gen

    square = {("p", (2, 0, 0, 0, 0, 0)): Fraction(1)}  # p*u^2
    assert gen._dx(gen._dx(square)) == {
        ("p", (1, 0, 1, 0, 0, 0)): 2,  # 2*p*u*u_xx
        ("p", (0, 2, 0, 0, 0, 0)): 2,  # 2*p*u_x^2
    }


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
