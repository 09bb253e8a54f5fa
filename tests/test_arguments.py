"""One argument rule at the public boundary, checked on every export.

Each row names an entry point (a function in flowcutter.__all__ or a method
of an exported class), its argument, the quantity its error messages name,
the hostile values of the argument's kind and a call that passes one of
them with every other argument valid. Every hostile value must raise
DomainError (the wrong kind, or below the range) or DepthCapError (over a
cap), before any work and with the quantity in the message; any other
exception, or a result, fails. Huge values go only to capped arguments: an
uncapped count (threads, grid points, refine or iteration steps, a word
length or a block index) would start, allocate or loop that many times.
"""

import math
import operator
import re

import numpy as np
import pytest

import flowcutter
from flowcutter import (CookieMap, FlowEngine, PointBatch, ScaledPoint, Word,
                        audit_interval_sizes, bd_sweep, bowen_dimension,
                        box_dimension, dimension_estimate, distortion,
                        enumerate_intervals, interval_J, interval_table,
                        inverse_branch, pressure_sum, sbd_profile,
                        sbd_witness, theoretical_bound, vector_field)
from flowcutter.dimension import DIMENSION_DEPTH_CAP
from flowcutter.distortion import EXHAUSTIVE_DEPTH_CAP, PROFILE_DEPTH_CAP
from flowcutter.errors import DepthCapError, DomainError
from flowcutter.symbolic import DEPTH_CAP

# not numbers of any kind: Python's and numpy's bools, a string, None
NOT_NUMBERS = (True, np.True_, "2", None)


def integer(least, cap=None):
    """(value, error) cases of an integer argument >= least, <= cap."""
    cases = [(v, DomainError) for v in (*NOT_NUMBERS, 2.0, least - 1)]
    if cap is not None:
        cases += [(cap + 1, DepthCapError), (2 ** 63, DepthCapError)]
    return cases


def real(least, most=math.inf):
    """(value, error) cases of a finite real argument in [least, most];
    2.0, a valid real where most >= 2, is above the range elsewhere."""
    values = (*NOT_NUMBERS, "0.5", math.nan, math.inf, -math.inf, least - 1.0)
    return [(v, DomainError) for v in values + ((2.0,) if most < 2.0 else ())]


SYMBOL = [(v, DomainError) for v in (*NOT_NUMBERS, 2.0, -1, 2)]

P = ScaledPoint.from_raw(0.1)
BATCH = PointBatch.from_raw(np.linspace(0.05, 0.95, 9))

ROWS = [
    # (entry point, argument, quantity named, cases, call(cmap, value))
    ("interval_J", "n", "window index", integer(0),
     lambda m, v: interval_J(v)),
    ("TimeSchedule.flow_time", "n", "schedule index", integer(1),
     lambda m, v: m.schedule.flow_time(v)),
    ("TimeSchedule.cumulative_time", "n", "schedule index", integer(1),
     lambda m, v: m.schedule.cumulative_time(v)),
    ("TimeSchedule.block_sum", "k", "block index", integer(0),
     lambda m, v: m.schedule.block_sum(v)),
    # 4096.0 hashes like the cached default map's grid_n
    ("CookieMap.certified", "grid_n", "certification grid",
     integer(1024) + [(4096.0, DomainError)],
     lambda m, v: CookieMap.certified(grid_n=v)),
    ("CookieMap.certified", "tol", "tolerance", real(1e-14, 1e-6),
     lambda m, v: CookieMap.certified(tol=v)),
    ("CookieMap.iterate", "k", "iteration count", integer(0),
     lambda m, v: m.iterate(ScaledPoint.in_window(3, 0.4), v)),
    ("CookieMap.inverse_point", "symbol", "branch symbol", SYMBOL,
     lambda m, v: m.inverse_point(v, P)),
    ("CookieMap.inverse_batch", "symbol", "branch symbol", SYMBOL,
     lambda m, v: m.inverse_batch(v, BATCH)),
    ("CookieMap.check_c1_boundary", "n", "window index", integer(0),
     lambda m, v: m.check_c1_boundary(v)),
    ("CookieMap.check_c1_boundaries", "ns", "window index", integer(0),
     lambda m, v: m.check_c1_boundaries([2, v])),
    ("FlowEngine", "tol", "tolerance", real(1e-14, 1e-6),
     lambda m, v: FlowEngine(tol=v)),
    ("FlowEngine.evolve", "order", "variational order",
     integer(0) + [(3, DomainError)],
     lambda m, v: m.engine.evolve(0.5, np.array([0.3, 0.6]), order=v)),
    ("FlowEngine.certify", "grid_n", "certification grid", integer(1024),
     lambda m, v: m.engine.certify(grid_n=v)),
    *((f"FlowEngine.{name}", arg, what, real(least, 1.0),
       lambda m, v, name=name, arg=arg: getattr(m.engine, name)(
           **dict({"t": 0.5, "x": 0.5}, **{arg: v})))
      for name in ("flow", "flow_position", "flow_derivative",
                   "flow_second_derivative")
      for arg, what, least in (("t", "flow time", -1.0),
                               ("x", "position", 0.0))),
    ("vector_field", "x", "field position", real(0.0, 1.0),
     lambda m, v: vector_field(v)),
    ("theoretical_bound", "M", "curvature bound", real(0.0),
     lambda m, v: theoretical_bound(v)),
    ("distortion", "grid", "grid points", integer(33),
     lambda m, v: distortion(m, "01", grid=v)),
    ("distortion", "refine_iters", "refine iterations", integer(0),
     lambda m, v: distortion(m, "01", refine_iters=v)),
    ("bd_sweep", "k_max", "exhaustive sweep depth",
     integer(1, EXHAUSTIVE_DEPTH_CAP), lambda m, v: bd_sweep(m, v, grid=33)),
    ("bd_sweep", "grid", "grid points", integer(33),
     lambda m, v: bd_sweep(m, 2, grid=v)),
    ("bd_sweep", "refine_iters", "refine iterations", integer(0),
     lambda m, v: bd_sweep(m, 2, grid=33, refine_iters=v)),
    ("bd_sweep", "threads", "threads", integer(1),
     lambda m, v: bd_sweep(m, 2, grid=33, threads=v)),
    ("sbd_witness", "k", "witness order", integer(0),
     lambda m, v: sbd_witness(m, v)),
    ("sbd_profile", "k_max", "profile search depth",
     integer(1, PROFILE_DEPTH_CAP), lambda m, v: sbd_profile(m, v, grid=33)),
    ("sbd_profile", "scales", "scale", real(1.0),
     lambda m, v: sbd_profile(m, 2, scales=(1.0, v), grid=33)),
    ("sbd_profile", "grid", "grid points", integer(33),
     lambda m, v: sbd_profile(m, 2, grid=v)),
    ("sbd_profile", "threads", "threads", integer(1),
     lambda m, v: sbd_profile(m, 2, grid=33, threads=v)),
    ("audit_interval_sizes", "n_max", "size audit n_max", integer(0),
     lambda m, v: audit_interval_sizes(m, v, 2)),
    ("audit_interval_sizes", "k_max", "size audit k_max", integer(0),
     lambda m, v: audit_interval_sizes(m, 2, v)),
    # None is combined_cap's default, no cap
    ("audit_interval_sizes", "combined_cap", "size audit combined_cap",
     [c for c in integer(1) if c[0] is not None],
     lambda m, v: audit_interval_sizes(m, 2, 2, combined_cap=v)),
    ("bowen_dimension", "depth", "dimension depth",
     integer(1, DIMENSION_DEPTH_CAP), lambda m, v: bowen_dimension(m, v)),
    ("box_dimension", "depth", "dimension depth",
     integer(2, DIMENSION_DEPTH_CAP), lambda m, v: box_dimension(m, v)),
    ("dimension_estimate", "depth", "dimension depth",
     integer(1, DIMENSION_DEPTH_CAP), lambda m, v: dimension_estimate(m, v)),
    ("pressure_sum", "s", "pressure exponent", real(0.0, 1.0),
     lambda m, v: pressure_sum(np.array([-1.0, -2.0]), v)),
    ("interval_table", "depth", "interval table depth",
     integer(0, DEPTH_CAP), lambda m, v: interval_table(m, v)),
    ("enumerate_intervals", "depth", "interval table depth",
     integer(0, DEPTH_CAP), lambda m, v: enumerate_intervals(m, v)),
    ("inverse_branch", "symbol", "branch symbol", SYMBOL,
     lambda m, v: inverse_branch(m, v, P)),
    ("Word.from_index", "index", "word index", integer(0),
     lambda m, v: Word.from_index(v, 3)),
    ("Word.from_index", "length", "bit length of the word index", integer(0),
     lambda m, v: Word.from_index(0, v)),
]

# Exports with no integer, real or symbol argument checked at the boundary:
# records and exceptions, whose fields the package fills with results; the
# point kernels, which check nothing new; and functions of words, arrays or
# certified constants.
NO_SCALAR_ARGUMENT = {
    "BasicInterval", "BlockDecomposition", "C1BoundaryReport",
    "DimensionEstimate", "DistortionReport", "FieldValue", "FlowConstants",
    "FlowSample", "IterateResult", "SbdProfile", "SbdWitness",
    "SizeBoundReport",
    "BoundViolationError", "CertificationError", "DepthCapError",
    "DomainError", "EscapeError", "SolverError",
    "Locus", "PointBatch", "ScaledPoint",
    "basic_interval", "certified_bracket", "decompose_blocks",
    "pressure_root",
}

CASES = [pytest.param(what, value, error, call,
                      id=f"{entry}({arg}={value!r})")
         for entry, arg, what, cases, call in ROWS
         for value, error in cases]


@pytest.mark.parametrize("what,value,error,call", CASES)
def test_a_hostile_argument_raises_the_rule_error(cmap, what, value, error,
                                                  call):
    with pytest.raises(error, match=re.escape(what)):
        call(cmap, value)


def test_every_export_has_a_row_or_takes_no_scalar_argument():
    for entry, *_ in ROWS:
        assert callable(operator.attrgetter(entry)(flowcutter)), entry
    exported = {name for name in flowcutter.__all__
                if callable(getattr(flowcutter, name))}
    covered = {entry.split(".")[0] for entry, *_ in ROWS}
    assert not covered & NO_SCALAR_ARGUMENT
    assert covered | NO_SCALAR_ARGUMENT == exported
