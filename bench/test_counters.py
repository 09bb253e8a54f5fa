"""Tests of the benchmark's tracing: counts repeat, outputs are untouched.

    PYTHONPATH=src python3 -m pytest bench/test_counters.py -q

About two minutes on a 2-core machine: two traced runs of every workload,
and the profile workload at one and at two threads.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import jobs  # noqa: E402
from tracer import COUNT_METRICS, Tracer, layer_metrics  # noqa: E402

# the layer each workload exists to exercise must show up in its counts
EXERCISED = {
    "sweep": ("cookie.inverse_batch.calls", "flow.evolve.calls",
              "scaled.from_raw.points"),
    "profile": ("cookie.inverse_batch.columns", "flow.evolve.columns"),
    "intervals": ("flow.evolve_interval.columns", "symbolic.pull_back.rows",
                  "dimension.pressure_sum.calls"),
    "lemmas": ("flow.scalar.solves", "cookie.iterate.steps",
               "symbolic.inverse_branch.calls", "optimize.golden.evals"),
}


def traced(workload: str, seed: int, **kwargs) -> tuple[dict, str]:
    tracer = Tracer()
    inputs = jobs.make_inputs(workload, seed)
    with tracer.patched():
        t0 = perf_counter()
        out = jobs.JOBS[workload](inputs, **kwargs)
        t1 = perf_counter()
    assert tracer.missing == []
    m = layer_metrics(tracer.spans, t0, t1, threading.main_thread().ident)
    return {k: m[k] for k in COUNT_METRICS}, jobs.fingerprint(out)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_counts_repeat_across_traced_runs(workload):
    first, out_first = traced(workload, 7)
    second, out_second = traced(workload, 7)
    assert first == second
    assert out_first == out_second
    for name in EXERCISED[workload]:
        assert first[name] > 0, name


def test_profile_counts_do_not_depend_on_threads():
    one, out_one = traced("profile", 0, threads=1)
    two, out_two = traced("profile", 0, threads=2)
    assert one == two
    assert out_one == out_two


def test_patches_are_removed_after_a_traced_run():
    import flowcutter.flow as flow
    import flowcutter.integrate as integrate
    from flowcutter.scaled import PointBatch

    solver = integrate.integrate_unit_interval
    evolve = vars(flow.FlowEngine)["evolve"]
    from_raw = vars(PointBatch)["from_raw"]
    tracer = Tracer()
    with tracer.patched():
        assert flow.integrate_unit_interval is not solver
        assert vars(flow.FlowEngine)["evolve"] is not evolve
        assert vars(PointBatch)["from_raw"] is not from_raw
    assert flow.integrate_unit_interval is solver
    assert integrate.integrate_unit_interval is solver
    assert vars(flow.FlowEngine)["evolve"] is evolve
    assert vars(PointBatch)["from_raw"] is from_raw
    assert tracer.spans == [] and tracer.missing == []
