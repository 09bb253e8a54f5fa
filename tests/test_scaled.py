import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcutter import DomainError, Locus, PointBatch, ScaledPoint


def test_zero_and_one():
    assert ScaledPoint.from_raw(0.0).locus is Locus.ZERO
    p = ScaledPoint.from_raw(1.0)
    assert p.locus is Locus.INJ and p.n == 0 and p.u == 1.0
    assert p.raw == 1.0


def test_window_boundaries_classify_into_windows():
    p = ScaledPoint.from_raw(2.0 / 3.0)
    assert p.locus is Locus.INJ and p.n == 0 and p.u == 0.0
    q = ScaledPoint.from_raw(1.0 / 3.0)
    assert q.locus is Locus.INJ and q.n == 1 and q.u == 1.0


def test_hole_and_gap():
    h = ScaledPoint.from_raw(0.5)
    assert h.locus is Locus.HOLE and not h.in_domain
    g = ScaledPoint.from_raw(0.15)
    assert g.locus is Locus.GAP and g.n == 1
    assert g.raw == pytest.approx(0.15, abs=1e-17)
    assert g.in_domain


def test_window_membership_example():
    # 0.7 = (0.1 + 2)/3 sits in the right branch piece
    p = ScaledPoint.from_raw(0.7)
    assert p.locus is Locus.INJ and p.n == 0
    assert p.u == pytest.approx(0.1, abs=1e-15)


@given(st.one_of(st.just(0.0),
                 st.floats(min_value=1e-250, max_value=1.0)))
@settings(max_examples=300, deadline=None)
def test_raw_round_trip_within_one_ulp(x):
    p = ScaledPoint.from_raw(x)
    assert abs(p.raw - x) <= math.ulp(x)


@given(st.integers(min_value=0, max_value=30),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_window_round_trip(n, u):
    p = ScaledPoint.in_window(n, u)
    q = ScaledPoint.from_raw(p.raw)
    # boundary coordinates may legitimately flip to the adjacent locus;
    # the unit coordinate keeps absolute (not relative) precision through
    # the raw detour, since u + 2 dominates the representation
    if q.locus is Locus.INJ and q.n == n:
        assert abs(q.u - u) <= 1e-15
    assert abs(q.raw - p.raw) <= 2 * math.ulp(p.raw)


def test_deep_points_stay_meaningful():
    p = ScaledPoint.in_window(100, 0.37)
    assert p.log_raw == pytest.approx(math.log(2.37) - 101 * math.log(3.0),
                                      rel=1e-15)
    assert p.raw > 0.0  # still representable at n = 100


def test_log_raw_of_zero():
    assert ScaledPoint.zero().log_raw == -math.inf


def test_log_raw_at_the_left_end_of_j0():
    assert ScaledPoint.in_window(0, 0.0).log_raw == math.log(2.0) - math.log(3.0)


@pytest.mark.parametrize("p", [ScaledPoint(Locus.HOLE, 0, 0.5),
                               ScaledPoint(Locus.GAP, 4, 0.4)],
                         ids=["hole", "gap"])
def test_log_raw_off_the_windows(p):
    assert p.log_raw == pytest.approx(math.log(p.raw), rel=1e-15)


def test_validation():
    with pytest.raises(DomainError):
        ScaledPoint(Locus.INJ, -1, 0.5)
    with pytest.raises(DomainError):
        ScaledPoint(Locus.INJ, 3, 1.5)
    with pytest.raises(DomainError):
        ScaledPoint(Locus.GAP, 0, 0.5)
    with pytest.raises(DomainError):
        ScaledPoint(Locus.HOLE, 0, 0.9)
    with pytest.raises(DomainError):
        ScaledPoint.from_raw(1.2)


def test_batch_matches_scalar_classification():
    rng = np.random.default_rng(42)
    xs = np.concatenate([rng.uniform(0.0, 1.0, 3000),
                         [0.0, 1.0, 0.5, 1 / 3, 2 / 3, 1e-9]])
    b = PointBatch.from_raw(xs)
    for i in range(0, xs.size, 97):
        p = ScaledPoint.from_raw(float(xs[i]))
        assert int(b.locus[i]) == int(p.locus)
        assert int(b.n[i]) == p.n
        assert float(b.u[i]) == p.u
    assert np.all(np.abs(b.raw() - xs) <= np.spacing(xs))


def test_batch_raw_matches_scalar_raw_at_every_depth():
    # the powers of three must be correctly rounded on both paths: a libm
    # pow misses float(3**k) at 32 exponents k <= 646, the first k = 41
    ns = np.arange(0, 601)
    for u in (0.0, 0.37, 1.0):
        b = PointBatch(np.full(ns.size, int(Locus.INJ), dtype=np.int8),
                       ns.astype(np.int32), np.full(ns.size, u))
        assert b.raw().tolist() == [ScaledPoint.in_window(int(n), u).raw
                                    for n in ns]
        assert [ScaledPoint.in_window(int(n), u).raw for n in ns] == [
            (u + 2.0) / float(3 ** (int(n) + 1)) for n in ns]
    gaps = ns[1:]
    b = PointBatch(np.full(gaps.size, int(Locus.GAP), dtype=np.int8),
                   gaps.astype(np.int32), np.full(gaps.size, 0.5))
    assert b.raw().tolist() == [ScaledPoint(Locus.GAP, int(n), 0.5).raw
                                for n in gaps]


def test_batch_from_raw_matches_scalar_from_raw_down_to_depth_600():
    # log-uniform down to 3^-601, the lower end of the gap below J_600
    rng = np.random.default_rng(7)
    xs = np.exp(-rng.uniform(0.0, 601.0, 20000) * math.log(3.0))
    b = PointBatch.from_raw(xs)
    assert np.all(np.abs(b.raw() - xs) <= np.spacing(xs))
    assert b.n.max() == 600
    scalar = [ScaledPoint.from_raw(float(x)) for x in xs]
    assert b.locus.tolist() == [int(p.locus) for p in scalar]
    assert b.n.tolist() == [p.n for p in scalar]
    assert b.u.tolist() == [p.u for p in scalar]


def test_depth_600_classifies_and_601_raises():
    for p in (ScaledPoint.in_window(600, 0.5), ScaledPoint(Locus.GAP, 600, 0.5)):
        assert ScaledPoint.from_raw(p.raw) == p
        assert PointBatch.from_raw(np.array([p.raw, 0.5])).point(0) == p
    for p in (ScaledPoint.in_window(601, 0.5), ScaledPoint(Locus.GAP, 601, 0.5)):
        with pytest.raises(DomainError):
            ScaledPoint.from_raw(p.raw)
        with pytest.raises(DomainError):
            PointBatch.from_raw(np.array([0.5, p.raw]))


def test_nan_is_outside_the_unit_interval():
    with pytest.raises(DomainError):
        PointBatch.from_raw(np.array([0.5, math.nan]))
    with pytest.raises(DomainError):
        ScaledPoint.from_raw(math.nan)


def test_batch_point_accessor():
    b = PointBatch.from_raw(np.array([0.0, 0.9, 0.15]))
    assert b.point(0).locus is Locus.ZERO
    assert b.point(1).locus is Locus.INJ
    assert b.point(2).locus is Locus.GAP
    assert b.size == 3


def test_batch_from_points_round_trip():
    pts = [ScaledPoint.zero(), ScaledPoint.in_window(4, 0.25),
           ScaledPoint.from_raw(0.4)]
    b = PointBatch.from_points(pts)
    assert [b.point(i) for i in range(3)] == pts
