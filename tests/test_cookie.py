import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowcutter.flow as flow_module
from flowcutter import (CookieMap, DomainError, EscapeError, FlowEngine,
                        Locus, PointBatch, ScaledPoint, TimeSchedule,
                        interval_J, interval_table)
from flowcutter.cookie import LN3
from flowcutter.flow import TABLE_CHECK
from flowcutter.oracle import affine_A, affine_B, apply_raw
from flowcutter.symbolic import IntervalSet


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
    for x in (0.0, 1e-300):     # 3^701 overflows: J_700 holds no float
        with pytest.raises(DomainError):
            affine_A(700, x)


def test_chart_reads_the_power_table():
    # B_n reads the correctly rounded powers ScaledPoint.raw reads, so past
    # 3^646 it underflows to 0.0 as raw does
    for n in (1, 40, 41, 300, 645, 646, 700):
        assert affine_B(n, 0.25) == ScaledPoint.in_window(n - 1, 0.25).raw
    assert affine_B(700, 0.5) == 0.0


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


@pytest.mark.parametrize("n", [0, -1, -3])
def test_flow_times_reject_indices_below_one(consts, n):
    sched = TimeSchedule(consts.T)
    with pytest.raises(DomainError):
        sched.flow_time(n)
    for ns in ([n], [5, n, 2]):
        with pytest.raises(DomainError):
            sched.flow_times(np.array(ns))


@pytest.mark.parametrize("ns", [[1.5, 2.9, 3.0], [2.0], [True, True], []],
                         ids=["fractions", "whole-float", "bool", "empty-float"])
def test_flow_times_reject_non_integer_dtypes(consts, ns):
    # [1.5, 2.9, 3.0] read as blocks 0, 1, 1 and [True, True] as index 1
    with pytest.raises(DomainError):
        TimeSchedule(consts.T).flow_times(np.array(ns))


def test_flow_times_reject_indices_from_two_to_the_53(consts):
    # the float of 2^54 - 1 is 2^54, so blocks reads block 54, not 53
    sched = TimeSchedule(consts.T)
    for n in (2 ** 53, 2 ** 54 - 1, 2 ** 63 - 1):
        assert sched.flow_time(n) == sched.block_time(n.bit_length() - 1)
        with pytest.raises(DomainError):
            sched.flow_times(np.array([5, n], dtype=np.int64))
    with pytest.raises(DomainError):
        sched.flow_times(np.array([2 ** 64 - 1], dtype=np.uint64))


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                   np.uint8, np.uint16, np.uint32, np.uint64])
def test_flow_times_match_flow_time_at_every_integer_width(consts, dtype):
    # every block edge 2^k - 1, 2^k, 2^k + 1 the dtype holds below 2^53
    sched = TimeSchedule(consts.T)
    top = min(int(np.iinfo(dtype).max), 2 ** 53 - 1)
    ns = sorted({n for k in range(top.bit_length() + 1)
                 for n in ((1 << k) - 1, 1 << k, (1 << k) + 1)
                 if 1 <= n <= top} | {top})
    got = sched.flow_times(np.array(ns, dtype=dtype))
    want = np.array([sched.flow_time(n) for n in ns])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("law", ["paper", "same-sign"])
def test_block_time_of_an_array_is_block_time_of_each(consts, law,
                                                      same_sign_schedule):
    # an array takes numpy's power, which may run SIMD code; every time
    # must keep the bits of Python's pow
    for T in (consts.T, 1.0 - 2.0 ** -53):
        sched = (TimeSchedule if law == "paper" else same_sign_schedule)(T)
        want = np.array([sched.block_time(k) for k in range(64)])
        for dtype in (np.int32, np.int64):
            got = sched.block_time(np.arange(64, dtype=dtype))
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes(), (T, dtype)


def test_flow_times_of_one_index_is_flow_time(consts):
    sched = TimeSchedule(consts.T)
    for n in range(1, 65):
        got = sched.flow_times(np.array([n]))
        assert got.tobytes() == np.array([sched.flow_time(n)]).tobytes(), n


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
    # exactly in +T/-T pairs); at T = 1 every time is +-2^-k, so every
    # partial sum is exact in any order
    k = n.bit_length() - 1
    lead = 0.0
    for j in range(k):
        lead += sched.block_sum(j)
    direct = lead + float(np.sum(sched.flow_times(np.arange(1 << k, n + 1))))
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


def test_schedule_takes_numpy_integers(consts):
    # an element of a PointBatch.n array indexes the schedule as its int
    sched = TimeSchedule(consts.T)
    for n in (1, 5, 4096, 12345):
        for cast in (np.int64, np.int32):
            assert sched.flow_time(cast(n)).hex() == sched.flow_time(n).hex()
            assert (sched.cumulative_time(cast(n)).hex()
                    == sched.cumulative_time(n).hex())
    for bad in (5.0, np.float64(5.0), np.int64(0), True, np.True_):
        with pytest.raises(DomainError):
            sched.flow_time(bad)
        with pytest.raises(DomainError):
            sched.cumulative_time(bad)


def test_block_time_is_the_one_statement_of_the_law(consts, monkeypatch,
                                                    same_sign_schedule):
    def law(k):
        return 0.25 ** k

    sched = same_sign_schedule(1.0)
    ns = np.arange(1, 4097)
    want = np.array([law(int(n).bit_length() - 1) for n in ns])
    assert sched.flow_times(ns).tobytes() == want.tobytes()
    assert all(sched.flow_time(int(n)).hex() == w.hex()
               for n, w in zip(ns, want.tolist()))
    # dyadic times: the direct sums are exact
    for k in range(12):
        block = sum(law(k) for _ in range(1 << k))
        assert sched.block_sum(k) == block
    acc = 0.0
    for n, t in zip(ns.tolist(), want.tolist()):
        acc += t
        assert sched.cumulative_time(n) == acc, n

    # a fresh map on that law builds its tables at exactly its times
    T = consts.T
    cmap = CookieMap(consts)
    cmap.schedule = same_sign_schedule(T)
    u = np.linspace(0.0, 1.0, 41)
    n = np.arange(u.size, dtype=np.int32) + 1          # blocks(n + 1): 1..5
    cmap.inverse_batch(0, PointBatch(np.full(u.size, int(Locus.INJ),
                                             dtype=np.int8), n, u))
    assert set(cmap.engine._table_rows) == {-T * law(k) for k in range(1, 6)}
    interval_table(cmap, 4)                             # adds block 0
    assert set(cmap.engine._table_rows) == {-T * law(k) for k in range(6)}

    # the wide rows hand evolve_interval those same times
    handed = []
    flow_interval = cmap.engine.evolve_interval

    def recorded(t, x_lo, width):
        handed.append(np.asarray(t).copy())
        return flow_interval(t, x_lo, width)

    monkeypatch.setattr(cmap.engine, "evolve_interval", recorded)
    n = np.array([0, 1, 2, 3, 6, 9], dtype=np.int32)
    rows = IntervalSet(n=n, u_lo=np.full(n.shape, 0.25),
                       d=np.full(n.shape, 0.5))
    child = rows.pull_back(cmap, 0)
    k = [int(m + 1).bit_length() - 1 for m in n]
    assert len(handed) == 1
    assert handed[0].tobytes() == np.array([-T * law(j) for j in k]).tobytes()
    # and the left ends flow at them too
    for m, j, u_lo in zip(n, k, child.u_lo):
        y, _ = cmap.engine.table_flow([-T * law(j)], np.zeros(1, int),
                                      np.array([0.25]))
        assert u_lo == y[0], m


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
        assert cmap.apply(p).raw == pytest.approx(apply_raw(cmap, p.raw), abs=1e-12)
    for x in (0.05, 0.15, 0.7, 0.95, 1.0 / 3.0):
        p = ScaledPoint.from_raw(x)
        assert cmap.apply(p).raw == pytest.approx(apply_raw(cmap, x), abs=1e-12)


def test_raw_route_refuses_the_hole(cmap):
    with pytest.raises(DomainError, match="central hole"):
        apply_raw(cmap, 0.5)


def test_conjugation_square(cmap):
    # F(B_{n+1}(u)) = B_n(phi_{t_n}(u)): the defining diagram of the deep branches
    us = np.linspace(0.0, 1.0, 21)
    for n in (1, 2, 5, 9):
        t = cmap.schedule.flow_time(n)
        for u in us:
            left = apply_raw(cmap, affine_B(n + 1, float(u)))
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
    # the table step, exactly; the ODE derivative as a cross-route check
    p = ScaledPoint.in_window(1, 0.5)
    t = cmap.schedule.flow_time(1)
    _, log_slope = cmap.engine.table_flow([t], np.array([0]), np.array([0.5]))
    assert cmap.derivative(p) == 3.0 * math.exp(float(log_slope[0]))
    assert cmap.derivative(p) == pytest.approx(
        3.0 * cmap.engine.flow_derivative(t, 0.5), rel=TABLE_CHECK)


def test_apply_and_derivative_are_one_iterate_step(cmap):
    # apply, derivative and iterate take the same forward step, in every
    # locus: bitwise
    rng = np.random.default_rng(13)
    pts = [ScaledPoint.zero(), ScaledPoint.from_raw(0.15),
           ScaledPoint.from_raw(0.05), ScaledPoint.from_raw(0.7),
           ScaledPoint.from_raw(1.0), ScaledPoint.in_window(0, 0.3)]
    assert [p.locus for p in pts[1:3]] == [Locus.GAP, Locus.GAP]
    assert [p.n for p in pts[1:3]] == [1, 2]
    pts += [ScaledPoint.in_window(n, u) for n in range(1, 41)
            for u in (0.0, 1.0, *rng.uniform(0.0, 1.0, 4))]
    for p in pts:
        step = cmap.iterate(p, 1)
        assert cmap.apply(p) == step.point
        assert cmap.derivative(p) == 3.0 * math.exp(step.log_extra)


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


@pytest.mark.parametrize("k", [True, np.True_, 2.0, np.float64(2.0), "2"])
def test_iterate_rejects_non_integer_counts(cmap, k):
    with pytest.raises(DomainError, match="iteration count"):
        cmap.iterate(ScaledPoint.in_window(3, 0.4), k)


def test_iterate_takes_numpy_integer_counts(cmap):
    p = ScaledPoint.in_window(3, 0.4)
    r = cmap.iterate(p, np.int64(2))
    assert type(r.steps) is int and r == cmap.iterate(p, 2)


# ----------------------------------------------------------------------
# the point route of the tables
# ----------------------------------------------------------------------

def _probe_batch(rng, size):
    """size points through every locus, deep windows included."""
    pool = [ScaledPoint.zero(), ScaledPoint.from_raw(0.5),
            ScaledPoint(Locus.GAP, 3, 0.45), ScaledPoint.in_window(0, 0.3),
            ScaledPoint.in_window(0, 1.0)]
    pool += [ScaledPoint.in_window(n, u) for n in (1, 2, 9, 40, 200)
             for u in (0.0, 1.0, float(rng.uniform()))]
    return PointBatch.from_points(pool[i] for i in rng.integers(0, len(pool),
                                                                size))


def test_zero_branch_builds_only_the_tables_of_its_windows(cmap):
    """The 0-branch flows every point and repairs those off the windows;
    a repaired point reads a window point's table, so gaps deeper than
    every window (blocks 5 and 8), the hole and 0 build no table."""
    points = [ScaledPoint.in_window(1, 0.3), ScaledPoint.in_window(2, 0.7),
              ScaledPoint(Locus.GAP, 40, 0.4),
              ScaledPoint(Locus.GAP, 300, 0.6),
              ScaledPoint(Locus.HOLE, 0, 0.5), ScaledPoint.zero()]
    b = PointBatch.from_points(points)
    fresh = CookieMap(cmap.constants)
    child, extra = fresh.inverse_batch(0, b)
    # blocks(2) = blocks(3) = 1
    assert set(fresh.engine._table_rows) == {-fresh.schedule.block_time(1)}
    # the point kernel's preimages and increments, bitwise
    want = [cmap.inverse_point(0, p) for p in points]
    assert [child.point(i) for i in range(b.size)] == [q for q, _ in want]
    assert extra.tobytes() == np.array([inc for _, inc in want]).tobytes()


def _assert_same_pull_back(got, want):
    (child, extra), (want_child, want_extra) = got, want
    for g, w in ((child.locus, want_child.locus), (child.n, want_child.n),
                 (child.u, want_child.u), (extra, want_extra)):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def test_batches_match_the_point_kernel(cmap):
    # every batch takes the block rules; each of its points is bitwise
    # inverse_point's preimage and increment, for batches of 1 to 5 points
    rng = np.random.default_rng(23)
    for size in range(1, 6):
        for _ in range(4):
            b = _probe_batch(rng, size)
            for s in (0, 1, np.int8(1)):
                pulled = [cmap.inverse_point(s, b.point(i))
                          for i in range(size)]
                want = PointBatch.from_points(q for q, _ in pulled)
                _assert_same_pull_back(
                    cmap.inverse_batch(s, b),
                    (want, np.array([inc for _, inc in pulled])))


def _every_locus_batch(rng):
    """Points at every locus, deep windows included, as a 1-D batch of 60
    and the same points as a 6 x 10 batch."""
    b = _probe_batch(rng, 60)
    assert set(b.locus.tolist()) == set(map(int, Locus))
    return [b, PointBatch(*(a.reshape(6, 10) for a in (b.locus, b.n, b.u)))]


def _junk_out(shape, extra_shape=None):
    """An out pair of the given shapes, filled with values no pull-back
    writes, so a test sees any entry left unwritten."""
    return (PointBatch(np.full(shape, 9, np.int8), np.full(shape, -7, np.int32),
                       np.full(shape, np.nan)),
            np.full(shape if extra_shape is None else extra_shape, np.nan))


def test_inverse_batch_writes_into_given_arrays(cmap):
    for b in _every_locus_batch(np.random.default_rng(31)):
        for symbol in (0, 1):
            out = _junk_out(b.u.shape)
            assert cmap.inverse_batch(symbol, b, out=out) is out
            _assert_same_pull_back(out, cmap.inverse_batch(symbol, b))


def test_inverse_batch_refuses_out_of_another_shape(cmap):
    # numpy would broadcast b into a larger out, filling every row of it
    for b in _every_locus_batch(np.random.default_rng(31)):
        shape = b.u.shape
        wrong = [_junk_out((2, *shape)), _junk_out((b.size - 1,)),
                 _junk_out((1, b.size)), _junk_out(shape, (2, *shape)),
                 _junk_out(shape, (b.size + 1,))]
        for symbol in (0, 1):
            for out in wrong:
                with pytest.raises(DomainError, match="shape"):
                    cmap.inverse_batch(symbol, b, out=out)


def test_one_point_calls_read_no_table_batch(cmap, monkeypatch):
    # apply, derivative, iterate and inverse_branch take the point route:
    # with the batch lookup broken they return the same values
    from flowcutter import inverse_branch
    rng = np.random.default_rng(29)
    pts = [ScaledPoint.in_window(n, float(u)) for n in (1, 2, 5, 17, 40)
           for u in rng.uniform(0.0, 1.0, 3)]
    pts += [ScaledPoint.from_raw(0.05), ScaledPoint.in_window(0, 0.4)]

    def run():
        return [(cmap.apply(p), cmap.derivative(p),
                 cmap.iterate(p, p.n if p.locus is Locus.INJ else 1),
                 inverse_branch(cmap, 0, p), inverse_branch(cmap, 1, p))
                for p in pts]

    want = run()

    def no_batch(*args, **kwargs):
        raise AssertionError("one point through the batch lookup")

    monkeypatch.setattr(FlowEngine, "table_flow", no_batch)
    assert run() == want


# ----------------------------------------------------------------------
# junction smoothness
# ----------------------------------------------------------------------

def test_junction_quotients_converge_to_three(cmap):
    for n in (0, 1, 2, 5, 10):
        rep = cmap.check_c1_boundary(n)
        assert rep.max_final_residual <= 1e-5
        for row in rep.rows:
            if row.side in ("right",) and row.location == "0":
                continue
            assert row.quotient == pytest.approx(3.0, abs=0.2)


def test_gap_side_quotients_are_exact(cmap):
    rep = cmap.check_c1_boundary(3)
    gap_rows = [r for r in rep.rows
                if (r.location, r.side) == ("1/3^3", "right")]
    assert gap_rows and all(r.quotient == 3.0 for r in gap_rows)


def test_junction_check_rejects_windows_no_step_fits(cmap, monkeypatch):
    # the smallest seam step du = 1e-9 3^(n+1) exceeds 1
    # from n = 18 on: J_n would get no seam rows and a residual of 0.0
    def no_solve(*args, **kwargs):
        raise AssertionError("ODE solve before the window check")

    with monkeypatch.context() as patch:
        patch.setattr(flow_module, "integrate_unit_interval", no_solve)
        for n in (18, 25, np.int64(40)):
            with pytest.raises(DomainError):
                cmap.check_c1_boundary(n)
            with pytest.raises(DomainError):
                cmap.check_c1_boundaries([2, n])
    # J_17 still fits the smallest step, and only it
    rep = cmap.check_c1_boundary(17)
    seam = [r for r in rep.rows if r.location != "0"]
    assert [(r.location, r.side) for r in seam] == [
        ("1/3^17", "left"), ("1/3^17", "right"),
        ("2/3^18", "right"), ("2/3^18", "left")]
    assert len({r.step for r in seam}) == 1
    assert 1e-3 < rep.max_final_residual < 1e-2


@pytest.mark.parametrize("n", [2.5, 2.0, np.float64(2.0), "2", True, None,
                               -1])
def test_window_indices_are_integers_from_zero(cmap, n):
    with pytest.raises(DomainError, match="window index"):
        interval_J(n)
    with pytest.raises(DomainError, match="window index"):
        cmap.check_c1_boundary(n)
    with pytest.raises(DomainError, match="window index"):
        cmap.check_c1_boundaries([0, n])


def test_junction_check_at_the_first_step(cmap):
    rep = cmap.check_c1_boundary(2)
    assert [(r.location, r.side, r.step) for r in rep.rows
            if r.step == 1e-2] == [
        ("1/3^2", "left", 1e-2), ("1/3^2", "right", 1e-2),
        ("2/3^3", "right", 1e-2), ("2/3^3", "left", 1e-2),
        ("0", "right", 1e-2)]


def test_midpoint_family_converges_slowly(cmap):
    rep = cmap.check_c1_boundary(0)
    res = [r.residual for r in rep.midpoint_rows]
    # paced by t_m ~ T/m: decreasing along doubling m, small at the end
    assert res[-1] < res[0]
    assert res[-1] < 5e-6
    assert rep.midpoint_final_residual == res[-1]


def _scalar_c1_rows(cmap, n):
    """The junction quotients of check_c1_boundary, one scalar ODE solve
    (FlowEngine.flow_position) per flowed point, in the report's row order."""
    sched, flow = cmap.schedule, cmap.engine.flow_position
    steps = [1e-2]                      # down to 1e-9, a tenth at a time
    while len(steps) < 8:
        steps.append(steps[-1] / 10.0)
    rows = []
    for h in steps:
        if n >= 1:
            du = h * float(3 ** (n + 1))
            t = sched.flow_time(n)
            if du <= 1.0:
                rows.append((f"1/3^{n}", "left", h,
                             3.0 * (1.0 - flow(t, 1.0 - du)) / du))
            if n >= 2 and du < 1.0:
                rows.append((f"1/3^{n}", "right", h, 3.0))
            if du <= 1.0:
                rows.append((f"2/3^{n + 1}", "right", h, 3.0 * flow(t, du) / du))
            if du < 1.0:
                rows.append((f"2/3^{n + 1}", "left", h, 3.0))
        else:
            rows += [("1", "left", h, 3.0), ("2/3", "right", h, 3.0)]
        p = ScaledPoint.from_raw(h)
        if p.locus is Locus.GAP:
            rows.append(("0", "right", h, 3.0))
        elif p.locus is Locus.INJ and p.n >= 1:
            y = flow(sched.flow_time(p.n), p.u)
            rows.append(("0", "right", h, 3.0 * (y + 2.0) / (p.u + 2.0)))
    midpoints = [("0", "right-midpoints", float(2 ** j),
                  3.0 * (flow(sched.flow_time(2 ** j), 0.5) + 2.0) / 2.5)
                 for j in range(14)]
    return rows, midpoints


def _assert_matches_scalar_solves(cmap, report):
    rows, midpoints = _scalar_c1_rows(cmap, report.n)
    for got_rows, want_rows in ((report.rows, rows),
                                (report.midpoint_rows, midpoints)):
        assert ([(r.location, r.side, r.step) for r in got_rows]
                == [w[:3] for w in want_rows])
        for r, w in zip(got_rows, want_rows):
            assert type(r.quotient) is float
            assert abs(r.quotient - w[3]) <= 1e-12, (report.n, r)


def test_c1_boundary_batches_match_scalar_solves(cmap):
    first_midpoints = None
    for n in (0, 1, 2, 3, 10, 17):
        report = cmap.check_c1_boundary(n)
        _assert_matches_scalar_solves(cmap, report)
        if first_midpoints is None:
            first_midpoints = report.midpoint_rows
        assert report.midpoint_rows == first_midpoints


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16])
def test_c1_boundaries_of_the_inner_windows_match_scalar_solves(cmap, n):
    # the windows the test above leaves out, each the second report of a
    # batch, so its rows come from a batch of two windows
    report = cmap.check_c1_boundaries([0, n])[1]
    assert report.n == n
    _assert_matches_scalar_solves(cmap, report)


def test_c1_boundaries_batch_matches_per_n_reports(cmap, monkeypatch):
    solve, shapes = flow_module.integrate_unit_interval, []

    def counted(f, y0, **kwargs):
        shapes.append(y0.shape)
        return solve(f, y0, **kwargs)

    ns = [0, 1, 2, 5, 10, 3]
    with monkeypatch.context() as patch:
        patch.setattr(flow_module, "integrate_unit_interval", counted)
        reports = cmap.check_c1_boundaries(ns)
        # no window, no solve
        assert cmap.check_c1_boundaries([]) == []
    # one seam solve per n >= 1 and each n-free family once
    assert len(shapes) == 5 + 2
    assert [r.n for r in reports] == ns
    for n, report in zip(ns, reports):
        single = cmap.check_c1_boundary(n)
        for got, want in ((report.rows, single.rows),
                          (report.midpoint_rows, single.midpoint_rows)):
            assert [(r.location, r.side, r.step) for r in got] == \
                [(r.location, r.side, r.step) for r in want]
            assert all(r.quotient.hex() == w.quotient.hex()
                       for r, w in zip(got, want)), n
    with pytest.raises(DomainError):
        cmap.check_c1_boundaries([2, -1])
