import math

import numpy as np
import pytest

import flowcutter.dimension as dimension_module
import flowcutter.symbolic as symbolic_module
from flowcutter import (BoundViolationError, DepthCapError, DomainError,
                        bowen_dimension, box_dimension, certified_bracket,
                        dimension_estimate, enumerate_intervals,
                        interval_table, pressure_sum)
from flowcutter.dimension import (DIMENSION_DEPTH_CAP, PRESSURE_TOL,
                                  pressure_root)
from flowcutter.symbolic import DEPTH_CAP

MIDDLE_THIRDS = math.log(2.0) / math.log(3.0)


def test_calibration_recovers_middle_thirds(calibration_map):
    for depth in (4, 8, 10):
        est = dimension_estimate(calibration_map, depth, "bowen")
        assert est.value == pytest.approx(MIDDLE_THIRDS, abs=1e-6)
        assert est.lower == est.upper == pytest.approx(MIDDLE_THIRDS, rel=1e-15)


def test_calibration_box_slope_is_exact(calibration_map):
    assert box_dimension(calibration_map, 8) == pytest.approx(
        MIDDLE_THIRDS, abs=1e-9)


def test_real_map_estimate_inside_bracket(cmap):
    est = dimension_estimate(cmap, 10, "bowen")
    assert est.lower < est.value < est.upper
    assert 0.0 < est.lower and est.upper < 1.0


def test_bracket_from_slope_range(consts):
    lo, hi = certified_bracket(consts)
    assert lo == pytest.approx(
        math.log(2) / math.log(3 * math.exp(consts.B1 * consts.T)), rel=1e-15)
    assert hi == pytest.approx(
        math.log(2) / math.log(3 * math.exp(-consts.B1 * consts.T)), rel=1e-15)
    assert lo < MIDDLE_THIRDS < hi


def test_pressure_is_strictly_decreasing(cmap):
    logs = interval_table(cmap, 8).log_sizes()
    probes = [pressure_sum(logs, s) for s in (0.2, 0.5, 0.8)]
    assert probes[0] > probes[1] > probes[2]


def test_pressure_sum_matches_scipy_logsumexp(cmap):
    logsumexp = pytest.importorskip("scipy.special").logsumexp
    logs = interval_table(cmap, 16).log_sizes()
    ties = np.array([-2.5, -1.0, -1.0, -7.0, -1.0, -30.0])
    for sizes in (logs, ties, np.array([-3.25]), np.full(5, -0.75)):
        for s in (0.0, 0.2, 0.5, 0.6310053, 0.8, 1.0):
            assert pressure_sum(sizes, s) == float(logsumexp(s * sizes))


def test_pressure_sum_leaves_the_cover_and_reads_any_real_dtype(cmap):
    # the terms are made in place in a scratch; the cover must not move,
    # and integer or float32 covers read as their float64 values
    logs = interval_table(cmap, 10).log_sizes()
    kept = logs.copy()
    for s in (0.0, 0.5, 1.0):
        pressure_sum(logs, s)
        assert np.array_equal(logs, kept)
    for cover in (np.array([-3, -1, -1, -8], dtype=np.int32),
                  np.array([6, 8, 8, 1], dtype=np.uint8),
                  logs.astype(np.float32)):
        for s in (0.0, 0.6310053, 1.0):
            assert pressure_sum(cover, s) == pressure_sum(
                cover.astype(np.float64), s)


def test_estimates_stabilize_with_depth(cmap):
    a = bowen_dimension(cmap, 10)
    b = bowen_dimension(cmap, 12)
    assert abs(a - b) <= 0.005


def test_box_dimension_needs_two_covers(cmap):
    # one cover is one point, through which no slope is determined
    with pytest.raises(DomainError):
        box_dimension(cmap, 1)
    with pytest.raises(DomainError):
        dimension_estimate(cmap, 1, method="box")
    assert box_dimension(cmap, 2) == 0.6309297535714576


def test_box_estimate_agrees_roughly(cmap):
    bowen = bowen_dimension(cmap, 10)
    box = box_dimension(cmap, 10)
    assert abs(bowen - box) <= 0.05


@pytest.fixture
def counted_pressure(monkeypatch):
    """pressure_sum with a call counter that raises past 5 000 calls, so a
    bisection that never stops fails instead of hanging."""
    calls = []
    real = dimension_module.pressure_sum

    def counted(log_sizes, s):
        calls.append(s)
        if len(calls) > 5000:
            raise RuntimeError("the bisection does not stop")
        return real(log_sizes, s)

    monkeypatch.setattr(dimension_module, "pressure_sum", counted)
    return calls


# the middle-thirds cover of depth 1, whose pressure root is log 2 / log 3
THIRDS_COVER = np.full(2, -math.log(3.0))


def test_pressure_root_meets_its_tolerance(counted_pressure):
    # two bracket checks and the 34 halvings that take [0, 1] to a width
    # of PRESSURE_TOL = 1e-10
    assert PRESSURE_TOL == 1e-10
    assert pressure_root(THIRDS_COVER) == pytest.approx(MIDDLE_THIRDS,
                                                       abs=PRESSURE_TOL)
    assert len(counted_pressure) <= 36


def test_pressure_root_needs_a_root_bracketed_by_zero_and_one():
    # one interval of size 1: the pressure is 0 for every s, no sign change
    with pytest.raises(BoundViolationError, match="not bracketed"):
        pressure_root(np.array([0.0]))


@pytest.mark.parametrize("log_sizes", [
    np.array([np.nan]), np.array([]), np.array([-np.inf, -1.0]),
    np.array([-1.0, np.inf]), np.array(["-1.0"]), np.array([True, False]),
], ids=["nan", "empty", "-inf", "inf", "str", "bool"])
def test_pressure_rejects_a_bad_cover(log_sizes):
    # a nan cover read as a dimension near 0, an empty one raised numpy's
    # ValueError, and a -inf size at s = 0 gave nan with a warning
    with pytest.raises(DomainError, match="log sizes"):
        pressure_root(log_sizes)
    for s in (0.0, 0.5, 1.0):
        with pytest.raises(DomainError, match="log sizes"):
            pressure_sum(log_sizes, s)


def test_validation(cmap):
    with pytest.raises(DomainError):
        dimension_estimate(cmap, 8, method="hausdorff")
    with pytest.raises(DepthCapError):
        dimension_estimate(cmap, 17)
    with pytest.raises(DomainError):
        dimension_estimate(cmap, 0)


@pytest.mark.parametrize("walk,depth,error", [
    (interval_table, -1, DomainError),
    (interval_table, DEPTH_CAP + 1, DepthCapError),
    (enumerate_intervals, DEPTH_CAP + 1, DepthCapError),
    (bowen_dimension, 0, DomainError),
    (bowen_dimension, DIMENSION_DEPTH_CAP + 1, DepthCapError),
    (box_dimension, 1, DomainError),
    (box_dimension, DIMENSION_DEPTH_CAP + 1, DepthCapError),
    (dimension_estimate, 0, DomainError),
    (dimension_estimate, DIMENSION_DEPTH_CAP + 1, DepthCapError),
    (lambda cmap, depth: dimension_estimate(cmap, depth, "box"), 1,
     DomainError),
])
def test_depth_checks_run_before_any_walk(cmap, monkeypatch, walk, depth,
                                          error):
    # a 2^depth walk past the cap would exhaust memory: the checks must
    # come first, and a usage error must not read as a geometry failure
    def no_walk(*args, **kwargs):
        raise AssertionError("the word tree was walked")

    monkeypatch.setattr(symbolic_module, "word_levels", no_walk)
    monkeypatch.setattr(dimension_module, "word_levels", no_walk)
    with pytest.raises(error):
        walk(cmap, depth)
