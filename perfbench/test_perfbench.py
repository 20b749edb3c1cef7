"""Checks of the benchmark itself: exact counters and a gate that fails closed.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent


def _run(workload, seed, trace, cwd, bench_dir=BENCH_DIR):
    return subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    results = []
    for _ in range(2):
        out = _run(workload, 7, 1, BENCH_DIR.parent)
        assert out.returncode == 0, out.stdout + out.stderr
        results.append(json.loads(out.stdout.splitlines()[-1]))
    first, second = results
    assert first["correct"] and second["correct"]
    assert first["attempted"] == second["attempted"]
    for name in tracer.COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert set(first["metrics"]) == set(tracer.METRICS) | {"trace.overhead_ratio"}


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        a, b = workloads.passes(workload, 11), workloads.passes(workload, 11)
        assert [next(a) for _ in range(3)] == [next(b) for _ in range(3)]


@pytest.mark.parametrize("fault", ["flipped expectation", "verdict raises"])
def test_gate_fails_closed(fault, monkeypatch, capsys):
    target = workloads.first_pass("sweep", 3)[0]
    if fault == "flipped expectation":
        real = workloads.expected_checks

        def expected(*instance):
            checks = real(*instance)
            if instance == target:
                checks["theorem"] = not checks["theorem"]
            return checks

        monkeypatch.setattr(workloads, "expected_checks", expected)
    else:
        real = workloads.run_instance

        def run_instance(qc, instance):
            if instance == target:
                raise ArithmeticError("injected")
            return real(qc, instance)

        monkeypatch.setattr(workloads, "run_instance", run_instance)
    code = run.main(["--workload", "sweep", "--seed", "3",
                     "--seconds", "0.2", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("sweep", 1, 0, tmp_path, tmp_path / BENCH_DIR.name)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
