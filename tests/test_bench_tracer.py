"""The benchmark's tracer still finds every entry point it wraps.

bench/tracer.py wraps package functions and methods by name (for example
optimize.golden_min, FlowEngine.evolve_interval and
FlowEngine.flow_second_derivative) for the length of a traced job. A change
that deletes or renames one of them shows up here as a missing name,
without running a workload.
"""

import importlib.util
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import flowcutter.cli  # noqa: F401  (the tracer wraps cli.main)
from flowcutter import flow as flow_module
from flowcutter import optimize
from flowcutter.cookie import CookieMap
from flowcutter.flow import FlowEngine
from flowcutter.scaled import PointBatch, ScaledPoint
from flowcutter.symbolic import IntervalSet, interval_table

distortion_module = sys.modules["flowcutter.distortion"]
TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
CLASSES = (FlowEngine, PointBatch, ScaledPoint, CookieMap, IntervalSet)


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every name bound by a package module or by a wrapped class."""
    owners = [m for name, m in sorted(sys.modules.items())
              if name == "flowcutter" or name.startswith("flowcutter.")]
    return {(id(owner), attr): value
            for owner in owners + list(CLASSES)
            for attr, value in list(vars(owner).items())}


def test_tracer_finds_every_name_and_restores_it():
    tracer_module = load_tracer()
    before = bindings()
    golden_max, golden_min = optimize.golden_max, optimize.golden_min
    evolve_interval = FlowEngine.__dict__["evolve_interval"]
    tracer = tracer_module.Tracer()
    with tracer.patched() as active:
        assert active.missing == []
        assert optimize.golden_max is not golden_max
        assert optimize.golden_min is not golden_min
        assert distortion_module.golden_max is not golden_max
        assert flow_module.golden_max is not golden_max
        assert FlowEngine.__dict__["evolve_interval"] is not evolve_interval
        assert distortion_module.ThreadPoolExecutor is not ThreadPoolExecutor
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.spans == []


def pull_back_rows(tracer):
    return [span.attrs["rows"] for span in tracer.spans
            if span.name == "symbolic.pull_back"]


def test_tracer_counts_every_pull_back_row(cmap, monkeypatch):
    # the counters read sizes off the wrapped methods' results: the rows of
    # an IntervalSet by its size, which must stay its row count
    tracer = load_tracer().Tracer()
    with tracer.patched():
        interval_table(cmap, 3)
    assert pull_back_rows(tracer) == [1, 1, 2, 2, 4, 4]
    # a grouped audit (16 rows a level: depth 4, then 16 one-row groups)
    # must still pull every level back through the wrapped name, each call
    # writing half a level
    budget, cap = 16, 8
    monkeypatch.setattr(distortion_module, "_LEVEL_POINTS", budget)
    tracer = load_tracer().Tracer()
    with tracer.patched():
        distortion_module.audit_interval_sizes(cmap, cap, cap,
                                               combined_cap=cap)
    rows = pull_back_rows(tracer)
    assert sum(rows) == 2 ** (cap + 1) - 2
    assert 2 * max(rows) <= budget
