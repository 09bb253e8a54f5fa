"""Child process of bench/run.py: one job repetition in a fresh process.

    worker.py WORKLOAD SEED TRACE

First it measures set-up as every CLI invocation pays it: the import of
flowcutter plus FlowEngine(1e-13).certify(4096), timed from before the
import. Then it runs the workload's job once, traced when TRACE is 1,
checks its outputs and prints one JSON line: times, peak memory, checks, a
hash of the outputs and, when traced, the per-layer metrics.

A fresh process per repetition starts as a CLI process does: no flow memo,
no cached map, no heap left warm by an earlier repetition, and its peak
resident memory is that of this workload alone. run.py puts src/ on
PYTHONPATH and pins the BLAS and OpenMP thread counts.
"""

from time import perf_counter

_T0 = perf_counter()
import flowcutter  # noqa: E402

flowcutter.FlowEngine(1e-13).certify(4096)
SETUP_S = perf_counter() - _T0

import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import sys
import threading
import traceback
from pathlib import Path
from time import process_time

import numpy
import scipy

import jobs
from tracer import Tracer, layer_metrics

OUT_DIR = Path(__file__).resolve().parents[1] / ".bench_out"


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_THREADS")}}


def run(workload: str, seed: int, trace: bool) -> dict:
    job = jobs.JOBS[workload]
    inputs = jobs.make_inputs(workload, seed)
    tracer = Tracer()
    gc.collect()
    out, error = None, None
    with tracer.patched() if trace else contextlib.nullcontext():
        t0, c0 = perf_counter(), process_time()
        try:
            out = job(inputs)
        except Exception:      # a job that raises is a failed check
            error = traceback.format_exc()
        t1, c1 = perf_counter(), process_time()
    if error is None:
        checks = jobs.check(workload, out, jobs.load_reference())
    else:
        sys.stderr.write(error)
        checks = [(f"job raised {error.strip().splitlines()[-1]}", False, None)]
    result = {
        "machine": machine_facts(),
        "setup": SETUP_S,
        "wall": t1 - t0, "cpu": c1 - c0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": hashlib.sha256(jobs.fingerprint(out).encode()).hexdigest(),
        "checks": [[name, ok] for name, ok, _ in checks],
        # the reference does not resolve deviations below its own tolerance
        "max_rel_err": max((max(e, jobs.REFERENCE_TOL) for _, _, e in checks
                            if e is not None), default=None),
    }
    if trace:
        result["per_layer"] = layer_metrics(tracer.spans, t0, t1,
                                            threading.main_thread().ident)
        result["missing"] = tracer.missing
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{workload}-{seed}.jsonl",
                    {"workload": workload, "seed": seed, "tol": jobs.TOL,
                     "machine": result["machine"], "missing": tracer.missing})
    return result


def main() -> int:
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    print(json.dumps(run(workload, seed, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
