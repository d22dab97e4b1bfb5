"""Smoke test of the benchmark at reduced sizes (about two minutes on 2 cores).

    python3 -m pytest -q benchmarks/test_smoke.py

It checks that every workload passes its gates, that the CPU-speed sampler
rescales times as speed.py says, that a deliberately broken artifact is
counted as a failed operation, that the traced run reports every
per-layer metric, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), "--seed", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def summary(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_gates_pass(name):
    result = summary(run_bench("--workload", name, "--seconds", "1", "--trace", "0", "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_speed_sampler_rescales_to_reference_speed():
    sampler = speed.SpeedSampler()
    mark = sampler.start()
    try:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            sum(range(1000))
    finally:
        sampler.stop()
    samples = sampler.window(mark)
    assert {k for k, _ in samples} == set(range(len(speed.KERNELS)))
    assert speed.reference_seconds(1.0, samples) > 0.0
    # Samples at exactly the reference times leave the rest of the span as it is.
    nominal = list(enumerate(speed.NOMINAL_S))
    assert speed.reference_seconds(1.0, nominal) == pytest.approx(1.0 - sum(speed.NOMINAL_S))
    # Kernels running twice as slow mean the work would take half the time.
    slow = [(k, 2 * t) for k, t in nominal]
    expected = 0.5 * (1.0 - 2 * sum(speed.NOMINAL_S))
    assert speed.reference_seconds(1.0, slow) == pytest.approx(expected)


def test_broken_artifact_counts_as_failed_op(tmp_path):
    wl = workloads.build(workloads.SMOKE)["partition"]
    done = harness.run_pass(wl, 1, None, tmp_path)
    assert harness.count_ops([done]) == (len(wl.steps) + len(done["gates"]), 0)
    # Duplicate one element: the partition is no longer disjoint.
    csv = tmp_path / "build-partition" / "partition.csv"
    lines = csv.read_text().splitlines()
    csv.write_text("\n".join([*lines, lines[1]]) + "\n")
    done["gates"] = harness._checked(harness.gates_for, wl, done["steps"], tmp_path)
    failed = [g["gate"] for g in done["gates"] if not g["ok"]]
    assert failed == ["disjoint"]
    assert harness.count_ops([done])[1] == 1


def test_traced_run_reports_every_layer():
    result = summary(run_bench("--workload", "partition", "--seconds", "1", "--trace", "1",
                               "--smoke"))
    assert result["correct"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "ensemble", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
