"""Every benchmark workload still reproduces its reference outputs.

Runs bench/worker.py WORKLOAD 7 0, one repetition of each workload declared
in BENCHMARK.json, in a fresh process set up as bench/run.py sets up its
children: src/ on PYTHONPATH and the BLAS and OpenMP thread counts pinned
to 1. A change that moves a benchmark output beyond the reference's
tolerance, or max_rel_err above the 1e-14 every workload meets, fails
here, before a benchmark run reports it. Nothing is
written under bench/ (the run is untraced and writes no bytecode).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_checks_pass(workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), workload, "7", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=150)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload}: max_rel_err = {result['max_rel_err']}")
    failed = [name for name, ok in result["checks"] if not ok]
    assert result["checks"] and not failed, (failed, proc.stderr)
    # every workload reproduces its reference to 1e-14 relative, far inside
    # the checks' 1e-9: a rise in max_rel_err shows here first
    assert result["max_rel_err"] <= 1e-14
