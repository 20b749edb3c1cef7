"""The frozen benchmark in ``perfbench/`` against the current package.

Its tracer wraps package internals by name and reads some of their
fields, so a refactor that still passes every other test can break it.
This runs a short traced pass of each workload as ``perfbench/run.py``
is run: from the repository root, in a fresh interpreter.  Every
function the tracer names must exist, so no pass may print a "not
found" line, and the ``audit`` pass must spend time in
``qcombinatorics.factor_product``.  Together the passes call every
public function the workloads use and reach three of the four tracer
probes; ``sweep`` is the one with failing literal verdicts in bulk.
The fourth, the probe of ``congruent_mod_phi``, is the tracer's only read
of a ``QRat`` field (``side.den.factors``, a layout ``QRat`` no longer
has), so no workload may call ``congruent_mod_phi``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["audit", "large_n", "sweep"])
def test_traced_benchmark_pass(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    missing = [line.split()[1] for line in lines
               if line.startswith("trace: ") and "not found in the package" in line]
    assert missing == []
    metrics = result["metrics"]
    assert metrics["congruence.congruent_mod_phi.calls"]["value"] == 0
    if workload == "audit":
        assert metrics["qcombinatorics.factor_product.self_s"]["value"] > 0
