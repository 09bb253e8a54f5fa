"""flowcutter benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload {sweep,profile,intervals,lemmas} \\
                         --seed N --seconds S --trace {0,1}

Run from the repository root. The program is imported from src/ of this
checkout; nothing is installed or built. The workload's job is repeated,
each time in a fresh process, until S seconds have passed (at least once).
With --trace 0 the command reports the end-to-end metrics as medians over
the repetitions; with --trace 1 each repetition is run once untraced and
once traced, and it reports the per-layer metrics. Human-readable lines
come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 when every
check passed, 1 when one failed, and 2 when the benchmark could not run.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "profile", "intervals", "lemmas")
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def child(args: list[str], timeout: float) -> str:
    """Run worker.py with pinned threads; return its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return lines[-1]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name in ("integrate.accept_ratio", "integrate.err_max", "trace.coverage"):
        return "1"
    return "count"


def measure(args) -> tuple[dict, list[tuple[str, bool]], int, dict]:
    """Repetitions until the time is up; returns metrics, checks, the number
    of repetitions and the machine facts."""
    job = [args.workload, str(args.seed)]
    plain, traced = [], []
    start = perf_counter()
    while not plain or perf_counter() - start < args.seconds:
        plain.append(json.loads(child(job + ["0"], CHILD_TIMEOUT_S)))
        if args.trace:
            traced.append(json.loads(child(job + ["1"], CHILD_TIMEOUT_S)))
        if not all(ok for _, ok in plain[-1]["checks"]):
            break
    reps = plain + traced
    checks = [(name, ok) for rep in reps for name, ok in rep["checks"]]
    checks.append(("repetitions give bitwise equal outputs",
                   len({rep["outputs"] for rep in reps}) == 1))

    def median(key, runs=plain):
        return statistics.median(rep[key] for rep in runs)

    if args.trace:
        layers = [rep["per_layer"] for rep in traced]
        counts = [{k: v for k, v in m.items() if per_layer_unit(k) == "count"}
                  for m in layers]
        checks.append(("counts repeat across traced repetitions",
                       all(c == counts[0] for c in counts)))
        checks.append(("tracer found every entry point",
                       not any(rep["missing"] for rep in traced)))
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        values.update(counts[0])
        values["trace.overhead_s"] = median("wall", traced) - median("wall")
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in sorted(values.items())}
    else:
        errs = [rep["max_rel_err"] for rep in plain]
        metrics = {
            "wall_s": {"value": median("wall"), "unit": "s"},
            "cpu_s": {"value": median("cpu"), "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MiB"},
            "setup_s": {"value": median("setup"), "unit": "s"},
        }
        if None not in errs:
            metrics["max_rel_err"] = {"value": max(errs), "unit": "1"}
    print("# wall_s of each repetition: "
          + " ".join(f"{rep['wall']:.4f}" for rep in plain))
    return metrics, checks, len(plain), plain[0]["machine"]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "flowcutter" / "__init__.py").is_file():
        print(f"bench: no flowcutter sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        metrics, checks, reps, machine = measure(args)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"bench: {exc!r}", file=sys.stderr)
        return 2

    attempted = len(checks)
    failed = sum(1 for _, ok in checks if not ok)
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} repetitions={reps}")
    print(f"# machine {json.dumps(machine, sort_keys=True)}")
    for name, ok in checks:
        if not ok:
            print(f"# FAILED check: {name}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    # fail_ratio is failed / attempted of the JSON line below, which carries
    # it as those two counts: as a metric it would read 0 on every good run
    print(f"{'fail_ratio':36s} {failed / attempted:.6g} 1  "
          f"({failed} of {attempted} checks failed)")

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
