import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcutter import (DomainError, EscapeError, Locus, PointBatch,
                        ScaledPoint, TimeSchedule, affine_A, affine_B,
                        interval_J)
from flowcutter.cookie import LN3


# ----------------------------------------------------------------------
# windows and charts
# ----------------------------------------------------------------------

def test_window_endpoints():
    lo, hi = interval_J(0)
    assert (lo.raw, hi.raw) == (2.0 / 3.0, 1.0)
    lo, hi = interval_J(1)
    assert lo.raw == pytest.approx(2.0 / 9.0, abs=1e-17)
    assert hi.raw == pytest.approx(1.0 / 3.0, abs=1e-17)


@pytest.mark.parametrize("n", range(0, 11))
def test_window_sizes(n):
    lo, hi = interval_J(n)
    assert hi.raw - lo.raw == pytest.approx(3.0 ** (-(n + 1)), rel=1e-14)


def test_chart_identity():
    assert affine_A(1, affine_B(2, 0.37)) == pytest.approx(0.37, abs=1e-15)
    assert affine_A(0, 2.0 / 3.0) == pytest.approx(0.0, abs=1e-15)
    assert affine_A(0, 1.0) == 1.0
    assert affine_B(1, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-16)


def test_chart_domain_errors():
    with pytest.raises(DomainError):
        affine_A(2, 0.9)        # not in J_2
    with pytest.raises(DomainError):
        affine_B(1, 1.2)


# ----------------------------------------------------------------------
# the dyadic time schedule
# ----------------------------------------------------------------------

def test_flow_time_blocks(consts):
    sched = TimeSchedule(consts.T)
    T = consts.T
    assert sched.flow_time(1) == T
    assert sched.flow_time(2) == sched.flow_time(3) == -T / 2
    for n in range(4, 8):
        assert sched.flow_time(n) == T / 4
    assert sched.flow_time(8) == -T / 8


def test_flow_times_vectorized_matches_scalar(consts):
    sched = TimeSchedule(consts.T)
    ns = np.arange(1, 5000)
    vec = sched.flow_times(ns)
    for n in (1, 2, 3, 4, 7, 8, 1023, 1024, 1025, 4095, 4096):
        assert vec[n - 1] == sched.flow_time(n)


def test_cumulative_time_examples(consts):
    sched = TimeSchedule(consts.T)
    assert sched.cumulative_time(1) == consts.T
    assert sched.cumulative_time(3) == 0.0
    assert sched.cumulative_time(7) == consts.T


@given(st.integers(min_value=1, max_value=10 ** 6))
@settings(max_examples=200, deadline=None)
def test_cumulative_time_closed_form(n):
    sched = TimeSchedule(1.0)
    got = sched.cumulative_time(n)
    assert 0.0 <= got <= 1.0
    # direct summation over the containing block (earlier blocks cancel
    # exactly in +T/-T pairs)
    k = n.bit_length() - 1
    lead = 0.0
    for j in range(k):
        lead += sched.block_sum(j)
    direct = lead + sum(sched.flow_time(m) for m in range(1 << k, n + 1))
    assert abs(direct - got) <= math.ulp(1.0)


def test_cumulative_time_direct_sum_small(consts):
    sched = TimeSchedule(consts.T)
    acc = 0.0
    for n in range(1, 4097):
        acc += sched.flow_time(n)
        assert acc == pytest.approx(sched.cumulative_time(n), abs=1e-15)
        assert 0.0 <= sched.cumulative_time(n) <= consts.T


def test_block_sums(consts):
    sched = TimeSchedule(consts.T)
    for k in range(0, 12):
        block = sum(sched.flow_time(n) for n in range(1 << k, 1 << (k + 1)))
        assert block == pytest.approx(sched.block_sum(k), abs=1e-16)


def test_schedule_index_validation(consts):
    with pytest.raises(DomainError):
        TimeSchedule(consts.T).flow_time(0)


# ----------------------------------------------------------------------
# the map
# ----------------------------------------------------------------------

def test_right_endpoint_is_fixed(cmap):
    p = ScaledPoint.from_raw(1.0)
    assert cmap.apply(p) == p
    assert cmap.derivative(p) == 3.0


def test_window_boundary_chain(cmap):
    # the scaled right endpoint of J_n maps exactly onto that of J_{n-1}
    for n in range(1, 11):
        q = cmap.apply(ScaledPoint.in_window(n, 1.0))
        assert q.locus is Locus.INJ and q.n == n - 1 and q.u == 1.0
        q = cmap.apply(ScaledPoint.in_window(n, 0.0))
        assert q.locus is Locus.INJ and q.n == n - 1 and q.u == 0.0


def test_gap_branch_is_triple(cmap):
    p = ScaledPoint.from_raw(0.15)
    q = cmap.apply(p)
    assert q.locus is Locus.HOLE
    assert q.raw == 3.0 * 0.15
    assert cmap.derivative(p) == 3.0


def test_zero_is_fixed(cmap):
    z = ScaledPoint.zero()
    assert cmap.apply(z) == z
    assert cmap.derivative(z) == 3.0


def test_hole_is_outside_domain(cmap):
    with pytest.raises(DomainError):
        cmap.apply(ScaledPoint.from_raw(0.5))
    with pytest.raises(DomainError):
        cmap.derivative(ScaledPoint.from_raw(0.5))


def test_scaled_and_raw_routes_agree(cmap):
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(1, 26))
        u = float(rng.uniform(0.0, 1.0))
        p = ScaledPoint.in_window(n, u)
        assert cmap.apply(p).raw == pytest.approx(cmap.apply_raw(p.raw), abs=1e-12)
    for x in (0.05, 0.15, 0.7, 0.95, 1.0 / 3.0):
        p = ScaledPoint.from_raw(x)
        assert cmap.apply(p).raw == pytest.approx(cmap.apply_raw(x), abs=1e-12)


def test_conjugation_square(cmap):
    # F(B_{n+1}(u)) = B_n(phi_{t_n}(u)): the defining diagram of the deep branches
    us = np.linspace(0.0, 1.0, 21)
    for n in (1, 2, 5, 9):
        t = cmap.schedule.flow_time(n)
        for u in us:
            left = cmap.apply_raw(affine_B(n + 1, float(u)))
            right = affine_B(n, cmap.engine.flow_position(t, float(u)))
            assert left == pytest.approx(right, abs=1e-12)


def test_monotone_on_both_pieces(cmap):
    xs = np.linspace(0.0, 1.0 / 3.0, 400)
    vals = [cmap.apply(ScaledPoint.from_raw(float(x))).raw for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    xs = np.linspace(2.0 / 3.0, 1.0, 200)
    vals = [cmap.apply(ScaledPoint.from_raw(float(x))).raw for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_expansion_floor(cmap):
    rng = np.random.default_rng(11)
    pts = [ScaledPoint.in_window(int(rng.integers(0, 12)), float(rng.uniform(0, 1)))
           for _ in range(50)]
    pts += [ScaledPoint.from_raw(0.02), ScaledPoint.from_raw(0.3)]
    for p in pts:
        d = cmap.derivative(p)
        assert d >= 2.0
        assert d <= 3.0 * math.exp(cmap.constants.B1 * cmap.constants.T) + 1e-12


def test_derivative_on_deep_window(cmap):
    p = ScaledPoint.in_window(1, 0.5)
    t = cmap.schedule.flow_time(1)
    want = 3.0 * cmap.engine.flow_derivative(t, 0.5)
    assert cmap.derivative(p) == want
    assert cmap.log_derivative(p) == pytest.approx(math.log(want), rel=1e-15)


# ----------------------------------------------------------------------
# iteration
# ----------------------------------------------------------------------

def test_iterate_through_affine_branches_is_exact(cmap):
    # points whose first n symbols are all 1 never touch the flow; interior
    # seeds keep the orbit clear of the 2/3 boundary, where a one-ulp
    # rounding could drop a point into the hole
    from flowcutter import inverse_branch
    for n in (1, 3, 7, 12):
        for s in (0.21, 0.5, 1.0):
            p = ScaledPoint.from_raw(s)
            for _ in range(n):
                p = inverse_branch(cmap, 1, p)
            r = cmap.iterate(p, n)
            assert r.log_extra == 0.0
            assert r.log_slope == n * LN3
            assert r.slope == pytest.approx(3.0 ** n, rel=1e-14)


def test_iterate_window_factorization(cmap):
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 21))
        u = float(rng.uniform(0.0, 1.0))
        r = cmap.iterate(ScaledPoint.in_window(n, u), n)
        s_n = cmap.schedule.cumulative_time(n)
        want = n * LN3 + math.log(cmap.engine.flow_derivative(s_n, u))
        assert r.log_slope == pytest.approx(want, abs=1e-9)
        # the n-th image is B_1(phi_{s_n}(u))
        assert r.point.locus is Locus.INJ and r.point.n == 0
        assert r.point.raw == pytest.approx(
            affine_B(1, cmap.engine.flow_position(s_n, u)), abs=1e-11)


def test_forward_and_backward_tables_are_inverse(cmap):
    # J_0 points pulled back through 0^n by inverse_batch and carried
    # forward n steps by iterate: the backward and forward tables of every
    # block must undo each other, in position and in the log slope
    rng = np.random.default_rng(3)
    u = np.concatenate([rng.uniform(0.0, 1.0, 200),
                        [0.0, 1.0, 0.0013, 0.9987, 0.5]])
    batch = PointBatch.from_points(ScaledPoint.in_window(0, x) for x in u)
    extras = np.zeros(u.size)
    worst_u = worst_log = 0.0
    for n in range(1, 101):
        batch, extra = cmap.inverse_batch(0, batch)
        extras += extra
        if n not in (1, 2, 7, 8, 100):
            continue
        for i in range(u.size):
            r = cmap.iterate(batch.point(i), n)
            assert r.point.locus is Locus.INJ and r.point.n == 0
            worst_u = max(worst_u, abs(r.point.u - u[i]))
            worst_log = max(worst_log, abs(r.log_extra - extras[i]))
    assert worst_u <= 1e-15
    assert worst_log <= 1e-14


def test_iterate_escape_reports_first_exit(cmap):
    # a gap point leaves the domain once its gap index runs out
    p = ScaledPoint.from_raw(0.05)         # gap between J_2 and J_1
    assert p.locus is Locus.GAP and p.n == 2
    r = cmap.iterate(p, 2)                 # lands exactly in the hole: fine
    assert r.point.locus is Locus.HOLE
    with pytest.raises(EscapeError) as exc:
        cmap.iterate(p, 3)
    assert exc.value.step == 2


def test_iterate_zero_steps(cmap):
    p = ScaledPoint.from_raw(0.25)
    r = cmap.iterate(p, 0)
    assert r.point == p and r.log_slope == 0.0


# ----------------------------------------------------------------------
# junction smoothness
# ----------------------------------------------------------------------

def test_junction_quotients_converge_to_three(cmap):
    for n in (0, 1, 2, 5, 10):
        rep = cmap.check_c1_boundary(n, h_min=1e-9)
        assert rep.max_final_residual <= 1e-5
        for row in rep.rows:
            if row.side in ("right",) and row.location == "0":
                continue
            assert row.quotient == pytest.approx(3.0, abs=0.2)


def test_gap_side_quotients_are_exact(cmap):
    rep = cmap.check_c1_boundary(3, h_min=1e-6)
    gap_rows = [r for r in rep.rows
                if (r.location, r.side) == ("1/3^3", "right")]
    assert gap_rows and all(r.quotient == 3.0 for r in gap_rows)


def test_midpoint_family_converges_slowly(cmap):
    rep = cmap.check_c1_boundary(0)
    res = [r.residual for r in rep.midpoint_rows]
    # paced by t_m ~ T/m: decreasing along doubling m, small at the end
    assert res[-1] < res[0]
    assert res[-1] < 5e-6
    assert rep.midpoint_final_residual == res[-1]
