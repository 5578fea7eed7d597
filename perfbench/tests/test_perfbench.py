"""Self-test of the gep benchmark: every workload at toy size.

    python3 -m pytest -q perfbench/tests

Checks the output schema against BENCHMARK.json, that each run reports
correct output, and that the benchmark refuses to run without sources.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload, trace, cwd=ROOT, run=RUN):
    cmd = [sys.executable, run, "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def test_benchmark_json_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert BENCH["paths"] == ["perfbench"]
    assert 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_schema(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if trace:
        # a per-layer metric is present, or named as absent or not exercised
        report = "\n".join(lines)
        for metric in expected:
            value = result["metrics"][metric["name"]]["value"]
            assert value != 0 or metric["name"] in report.split("absent")[-1]
    else:
        for metric in expected:
            assert result["metrics"][metric["name"]]["value"] > 0
    env = json.loads(next(line for line in lines if line.startswith("environment "))[12:])
    assert env["blas_threads"] <= env["nproc"]
    assert {"python", "numpy", "scipy", "blas", "commit", "seed"} <= set(env)


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run(WORKLOADS[0], 0, cwd=tmp_path, run=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
