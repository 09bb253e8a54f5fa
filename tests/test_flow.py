"""Flow evaluation against frozen quadrature-route oracles and identities.

The frozen constants below were computed with 40-digit arithmetic through
the rectified-time route (adaptive quadrature of 1/X plus bisection of the
shift equation), then rounded to float64. They are independent of the ODE
path under test.
"""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import flowcutter.flow as flow
from flowcutter import (CookieMap, DomainError, FlowEngine, SolverError,
                        vector_field)
from flowcutter import oracle
from flowcutter.scaled import Locus, PointBatch

PHI_1_05 = 0.5182829661743497
PHI_1_03 = 0.3088896139052051
PHI_1_04 = 0.4159096457325979
PHI_1_095 = 0.9500000007193798
PHI_1_005 = 0.05000000071937996
PHI_M1_05 = 0.4817170338256503
PHI_HALF_05 = 0.5091537263233277
DPHI_1_03 = 1.0806421342062765
DPHI_1_04 = 1.0515175498420541
DPHI_1_05 = 0.9946588845457535


@pytest.mark.parametrize("t,x,want", [
    (1.0, 0.5, PHI_1_05),
    (1.0, 0.3, PHI_1_03),
    (1.0, 0.4, PHI_1_04),
    (1.0, 0.95, PHI_1_095),
    (1.0, 0.05, PHI_1_005),
    (-1.0, 0.5, PHI_M1_05),
    (0.5, 0.5, PHI_HALF_05),
])
def test_position_against_frozen_oracle(engine, t, x, want):
    assert engine.flow_position(t, x) == pytest.approx(want, abs=1e-11)


@pytest.mark.parametrize("t,x,want", [
    (1.0, 0.3, DPHI_1_03),
    (1.0, 0.4, DPHI_1_04),
    (1.0, 0.5, DPHI_1_05),
])
def test_derivative_against_frozen_oracle(engine, t, x, want):
    assert engine.flow_derivative(t, x) == pytest.approx(want, rel=1e-11)


def test_time_zero_is_identity(engine):
    for x in (0.0, 0.2, 0.5, 0.9, 1.0):
        s = engine.flow(0.0, x)
        assert s.y == x and s.d1 == 1.0 and s.d2 == 0.0


def test_endpoints_are_rigid(engine):
    for t in (1.0, -1.0, 0.25, -0.125):
        for x, fixed in ((0.0, 0.0), (1.0, 1.0)):
            s = engine.flow(t, x)
            assert s.y == fixed
            assert s.d1 == 1.0
            assert s.d2 == 0.0


def test_reflection_symmetry(engine):
    # X(1-x) = X(x) forces phi_{-t}(1-x) = 1 - phi_t(x)
    got = engine.flow_position(-1.0, 0.5)
    assert got == pytest.approx(1.0 - engine.flow_position(1.0, 0.5), abs=5e-13)


def test_semigroup_property(engine):
    xs = np.linspace(0.0, 1.0, 17)
    times = (1.0, -0.5, 0.25)
    for t in times:
        for s in times:
            if abs(t + s) > 1.0:
                continue
            (via,) = engine.evolve(t, engine.evolve(s, xs, order=0)[0], order=0)
            (direct,) = engine.evolve(t + s, xs, order=0)
            assert np.max(np.abs(via - direct)) <= 1e-9


def test_inverse_consistency(engine):
    xs = np.linspace(0.0, 1.0, 33)
    (fwd,) = engine.evolve(0.75, xs, order=0)
    (back,) = engine.evolve(-0.75, fwd, order=0)
    assert np.max(np.abs(back - xs)) <= 1e-9


def test_variational_multiplier_matches_speed_ratio(engine):
    # phi'_t(x) = X(phi_t(x)) / X(x) for one-dimensional autonomous flows
    xs = np.linspace(0.05, 0.95, 33)
    y, v = engine.evolve(1.0, xs, order=1)
    (num,) = (np.array([vector_field(float(q)).speed for q in y]),)
    den = np.array([vector_field(float(q)).speed for q in xs])
    assert np.max(np.abs(v - num / den) / np.abs(v)) <= 1e-8


def test_small_time_uniformity(engine):
    xs = np.linspace(0.0, 1.0, 257)
    prev = math.inf
    for j in range(8):
        _, v = engine.evolve(2.0 ** (-j), xs, order=1)
        dev = float(np.max(np.abs(v - 1.0)))
        assert dev < prev
        prev = dev
    assert prev < 1e-3


def test_second_variation_zero_cases(engine):
    assert engine.flow_second_derivative(0.0, 0.37) == 0.0
    assert engine.flow_second_derivative(0.8, 0.0) == 0.0
    assert engine.flow_second_derivative(0.8, 1.0) == 0.0


def test_second_variation_against_finite_difference(engine):
    h = 1e-5
    for x in (0.2, 0.5, 0.8):
        fd = (engine.flow_derivative(1.0, x + h)
              - engine.flow_derivative(1.0, x - h)) / (2 * h)
        assert engine.flow_second_derivative(1.0, x) == pytest.approx(fd, rel=1e-6)


def test_time_coordinate_basics():
    assert oracle.time_coordinate(0.5) == 0.0
    assert oracle.time_coordinate(0.6) > oracle.time_coordinate(0.5)
    assert oracle.time_coordinate(0.4) < 0.0
    with pytest.raises(DomainError):
        oracle.time_coordinate(0.0005)


def test_time_coordinate_route_is_quiet_at_its_margins(engine):
    # quad warns of roundoff at x <= 0.0028 and x >= 0.9972; the margin
    # keeps every tau evaluation, the root finder's bracket ends included,
    # where it converges
    lo = oracle.TIME_COORDINATE_MARGIN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (lo, 1.0 - lo):
            assert math.isfinite(oracle.time_coordinate(x))
            for t in (1.0, -1.0):
                shift = oracle.flow_by_time_coordinate(t, x)
                assert abs(shift - engine.flow_position(t, x)) <= 1e-12


def test_scipy_stays_off_the_import_path():
    # import and certification load neither the oracle module nor any
    # scipy subpackage; importing the oracle loads scipy.integrate
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    script = (
        "import sys\n"
        "import flowcutter\n"
        "cmap = flowcutter.CookieMap.certified()\n"
        "heavy = ('flowcutter.oracle', 'scipy.integrate', 'scipy.optimize',\n"
        "         'scipy.special', 'scipy.ndimage')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "from flowcutter import oracle\n"
        "print(oracle.time_coordinate(0.6) > 0.0)\n"
        "print('scipy.integrate' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["[]", "True", "True"]


def test_flow_against_time_coordinate_route(engine):
    for x in (0.1, 0.25, 0.4, 0.5, 0.75, 0.9):
        for t in (1.0, -1.0, 0.5):
            ode = engine.flow_position(t, x)
            shift = oracle.flow_by_time_coordinate(t, x)
            assert abs(ode - shift) <= 1e-9


def test_shift_route_inversion_identity(engine):
    # tau^{-1}(tau(x) + t) reproduces the flow
    x, t = 0.4, 1.0
    theta = oracle.time_coordinate(x) + t
    y = oracle.invert_time_coordinate(theta, 0.3, 0.5)
    assert abs(y - engine.flow_position(t, x)) <= 1e-9


def test_evolve_shapes_and_broadcast(engine):
    xs = np.linspace(0.1, 0.9, 5)
    (y0,) = engine.evolve(1.0, xs, order=0)
    y1, v1 = engine.evolve(1.0, xs, order=1)
    y2, v2, w2 = engine.evolve(1.0, xs, order=2)
    assert y0.shape == v1.shape == w2.shape == xs.shape
    assert np.allclose(y0, y1, atol=1e-13) and np.allclose(y1, y2, atol=1e-13)
    # per-component times
    ts = np.array([0.0, 1.0, -1.0, 0.5, 0.25])
    y, v = engine.evolve(ts, xs, order=1)
    assert y[0] == xs[0] and v[0] == 1.0
    for i in range(1, 5):
        assert y[i] == pytest.approx(engine.flow_position(float(ts[i]), float(xs[i])),
                                     abs=1e-12)


def test_evolve_interval_width_matches_derivative(engine):
    x = np.array([0.3])
    w = np.array([1e-18])
    y, w_out = engine.evolve_interval(1.0, x, w)
    assert float(y[0]) == pytest.approx(PHI_1_03, abs=1e-11)
    assert float(w_out[0]) / 1e-18 == pytest.approx(DPHI_1_03, rel=1e-9)


def test_evolve_interval_wide_matches_endpoints(engine):
    x = np.array([0.2])
    w = np.array([0.3])
    _, w_out = engine.evolve_interval(1.0, x, w)
    want = engine.flow_position(1.0, 0.5) - engine.flow_position(1.0, 0.2)
    assert float(w_out[0]) == pytest.approx(want, rel=1e-11)


def test_scalar_cache_is_consistent(engine):
    a = engine.flow(1.0, 0.3)
    b = engine.flow(1.0, 0.3)
    assert a == b


def test_domain_errors(engine):
    with pytest.raises(DomainError):
        engine.flow(1.5, 0.5)
    with pytest.raises(DomainError):
        engine.flow(0.5, -0.1)


@pytest.mark.parametrize("t,x", [
    (0.5, [1.5]), (0.5, [np.nan]), (0.5, [-1e-12]), (0.5, [0.2, np.inf]),
    (5.0, [0.3]), (np.nan, [0.3]), (-np.inf, [0.3]),
    ([0.5, -1.5], [0.3, 0.4]),
])
def test_evolve_rejects_what_flow_rejects(engine, t, x):
    # a stray position came back as the fixed point it was clipped to, a
    # nan one as nan with slope 1, and a time outside [-1, 1] was flowed
    for order in (0, 1, 2):
        with pytest.raises(DomainError, match="flow time|position"):
            engine.evolve(t, x, order=order)
    # the ends of both ranges are inside them
    y, d1 = engine.evolve(np.array([-1.0, 1.0]), np.array([0.0, 1.0]))
    assert y.tolist() == [0.0, 1.0] and np.all(np.isfinite(d1))


def test_error_proxy_is_tracked(engine):
    s = engine.flow(1.0, 0.37)
    assert 0.0 <= s.err < 1e-10


def test_plateau_rate_against_30_digit_oracle(consts, plateau_rate):
    # rho* = 1/(9 phi_T'(u*)) with phi_T(u*) = (u*+2)/9, recomputed from the
    # rectified time tau = int dx/X alone: the fixed point solves
    # tau((u+2)/9) - tau(u) = T, and phi_T'(u) = X(phi_T(u))/X(u)
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(30):
        X = lambda u: mp.exp(1 / (u * (u - 1)))
        T = mp.mpf(consts.T)
        shift = lambda u: mp.quad(lambda s: 1 / X(s), [u, (u + 2) / 9]) - T
        u = mp.findroot(shift, mp.mpf("0.245"))
        rho = X(u) / (9 * X((u + 2) / 9))
        assert abs(shift(u)) < mp.mpf(10) ** -25
        # the constant 0.1 lies below rho* by far more than 30-digit roundoff
        assert rho - mp.mpf("0.1") > mp.mpf("1e-3")
        assert abs(plateau_rate / rho - 1) <= 1e-12


# ----------------------------------------------------------------------
# displacement tables (the pull-back hot path)
# ----------------------------------------------------------------------

def _pull_back_times(T):
    # the times inverse_batch flows by: -t_n for the blocks k = 0..9 that
    # windows up to n = 600 reach
    return [-(-0.5) ** k * T for k in range(10)]


def test_tables_against_30_digit_oracle(cmap):
    # phi_t(x) solves int_x^y du/X = t; Newton on y in 30-digit arithmetic,
    # then log phi_t'(x) = e(y) - e(x) with e = 1/(x(x-1)), exactly
    mp = pytest.importorskip("mpmath").mp
    times = _pull_back_times(cmap.constants.T)
    xs = np.array([0.03, 0.05, 0.1, 0.25, 0.41, 0.5, 0.62, 0.83, 0.95, 0.97])
    worst_pos = worst_slope = 0.0
    with mp.workdps(30):
        X = lambda u: mp.exp(1 / (u * (u - 1)))
        for j, t in enumerate(times):
            y, log_slope = cmap.engine.table_flow(times, np.full(xs.size, j), xs)
            for x, got_y, got_slope in zip(xs, y, log_slope):
                x, t_mp = mp.mpf(float(x)), mp.mpf(t)
                v = x + t_mp * X(x)
                for _ in range(5):
                    step = (mp.quad(lambda u: 1 / X(u), [x, v]) - t_mp) * X(v)
                    v -= step
                assert abs(step) <= mp.mpf(10) ** -25
                want_slope = 1 / (v * (v - 1)) - 1 / (x * (x - 1))
                worst_pos = max(worst_pos, float(abs(mp.mpf(float(got_y)) - v)))
                worst_slope = max(worst_slope,
                                  float(abs(mp.mpf(float(got_slope)) - want_slope)))
    print(f"table vs 30-digit oracle: |d phi| {worst_pos:.2e}, "
          f"|d log phi'| {worst_slope:.2e}")
    assert worst_pos <= 4e-15
    assert worst_slope <= 1e-14


def test_tables_match_variational_ode(cmap):
    times = _pull_back_times(cmap.constants.T)[:5]
    xs = np.linspace(0.0, 1.0, 4097)
    for j, t in enumerate(times):
        y, log_slope = cmap.engine.table_flow(times, np.full(xs.size, j), xs)
        y_ode, v = cmap.engine.evolve(t, xs, order=1)
        assert np.max(np.abs(y - y_ode)) <= 4e-15
        assert np.max(np.abs(log_slope - np.log(v))) <= 1e-14


def test_table_flow_is_batch_independent(cmap):
    times = _pull_back_times(cmap.constants.T)[:4]
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.0, 1.0, 500)
    which = rng.integers(0, len(times), xs.size)
    y, log_slope = cmap.engine.table_flow(times, which, xs)
    back = slice(None, None, -1)
    y_rev, slope_rev = cmap.engine.table_flow(times, which[back], xs[back])
    assert np.array_equal(y, y_rev[back])
    assert np.array_equal(log_slope, slope_rev[back])
    for i in range(0, xs.size, 37):
        y1, s1 = cmap.engine.table_flow([times[which[i]]], np.zeros(1, int),
                                        xs[i:i + 1])
        assert y1[0] == y[i] and s1[0] == log_slope[i]


def test_underflow_points_stay_fixed(cmap):
    times = _pull_back_times(cmap.constants.T)
    # 0.001344 shares its table cell with a live knot
    xs = np.array([0.0, 1e-300, 1e-4, 1e-3, 0.001344, 1.0 - 0.001344,
                   1.0 - 1e-4, 1.0])
    (speed,) = flow._field_arrays(xs, 0)
    assert np.all(speed == 0.0)
    for j in range(len(times)):
        y, log_slope = cmap.engine.table_flow(times, np.full(xs.size, j), xs)
        assert np.array_equal(y, xs)
        assert np.all(log_slope == 0.0)


@pytest.mark.parametrize("t", [0.0, -0.0])
def test_zero_time_is_the_identity_bitwise(consts, t):
    # no zero-time branch: the general solve and table build give the
    # identity, whose log slope is zero
    engine = FlowEngine(tol=consts.tol)
    xs = np.concatenate([np.linspace(0.0, 1.0, 65), [1e-300, 0.001344]])
    for order in range(3):
        got = engine.evolve(t, xs, order=order)
        want = (xs, np.ones_like(xs), np.zeros_like(xs))[:order + 1]
        assert len(got) == order + 1
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), order
    widths = np.full(xs.shape, 1e-3)
    y_lo, w_out = engine.evolve_interval(t, xs, widths)
    assert y_lo.tobytes() == xs.tobytes()
    assert w_out.tobytes() == widths.tobytes()
    y, log_slope = engine.table_flow([t], np.zeros(xs.size, int), xs)
    assert y.tobytes() == xs.tobytes()
    assert np.all(log_slope == 0.0)
    s = engine.flow(t, 0.3)
    assert (s.y, s.d1, s.d2, s.err) == (0.3, 1.0, 0.0, 0.0)


def test_calibration_table_is_exact_identity(monkeypatch):
    # a fresh map, so that its zero-time tables are built here
    calibration_map = CookieMap.calibration()
    solve = flow.integrate_unit_interval

    def one_step(f, y0, **kwargs):
        y, err, steps = solve(f, y0, **kwargs)
        # a zero flow time is the general solve: one exact step
        assert steps == 1 and err == 0.0
        return y, err, steps

    monkeypatch.setattr(flow, "integrate_unit_interval", one_step)
    u = np.linspace(0.0, 1.0, 257)
    n = np.arange(u.size, dtype=np.int32) % 40 + 1
    batch = PointBatch(np.full(u.size, int(Locus.INJ), dtype=np.int8), n, u)
    child, extra = calibration_map.inverse_batch(0, batch)
    assert np.array_equal(child.u, u)
    assert np.array_equal(child.n, n + 1)
    assert np.all(extra == 0.0)


def test_perturbed_table_nodes_fail_the_build_check(consts, monkeypatch):
    solve = flow.integrate_unit_interval
    calls = []

    def perturbed(f, y0, **kwargs):
        y, err, steps = solve(f, y0, **kwargs)
        if not calls:                  # the knots' solve, not the midpoints'
            y *= 1.0 + 1e-9
        calls.append(y0.shape)
        return y, err, steps

    monkeypatch.setattr(flow, "integrate_unit_interval", perturbed)
    engine = FlowEngine(tol=consts.tol)
    with pytest.raises(SolverError, match="cell midpoint"):
        engine.table_flow([consts.T], np.zeros(1, int), np.array([0.5]))
    assert engine._table_rows == {}


def _ref_cells(x):
    # the cell and offset formulas of the unblocked lookup, frozen
    s = x * flow.TABLE_CELLS
    cell = np.clip(np.floor(s), 0.0, flow.TABLE_CELLS - 1.0)
    return cell.astype(np.intp), s - cell


def _ref_hermite(knots, theta):
    d0, m0 = knots[..., 0, 0], knots[..., 0, 1]
    d1, m1 = knots[..., 1, 0], knots[..., 1, 1]
    c2 = 3.0 * (d1 - d0) - 2.0 * m0 - m1
    c3 = 2.0 * (d0 - d1) + m0 + m1
    return d0 + theta * (m0 + theta * (c2 + theta * c3))


def _gather_table_flow(engine, times, which, x):
    """table_flow as a two-index gather of each point's 2 x 2 knot block
    from the knot columns of the (times x knots x 4) stack and the frozen
    formulas, all points at once; the tables must already exist."""
    rows = np.array([engine._table_rows[float(t)] for t in times])
    cell, theta = _ref_cells(x)
    knots = engine._tables[rows[which][..., None],
                           cell[..., None] + np.array([0, 1]), :2]
    d, log_slope = _ref_log_slope(x, _ref_hermite(knots, theta))
    return x + d, log_slope


def _lookup_cases(n_times, rng):
    """(which, x) batches across the block seams, on knots, in the flat
    tails and at 0 and 1, with mixed tables."""
    block = flow._BLOCK
    knots = np.arange(0, flow.TABLE_CELLS + 1, 97) / flow.TABLE_CELLS
    tails = np.concatenate([np.linspace(0.0, 0.0016, 301),
                            np.linspace(0.9984, 1.0, 301)])
    cases = [(rng.integers(0, n_times, n), rng.uniform(0.0, 1.0, n))
             for n in (1, 5, block - 1, block, block + 1, 3 * block + 7)]
    edges = np.concatenate([knots, tails, [0.0, 1.0, 0.0, 1.0]])
    return cases + [
        (np.full(knots.size, 3), knots),
        (np.array([0, n_times - 1, 2, 5]), np.array([0.0, 1.0, 1.0, 0.0])),
        (rng.integers(0, n_times, tails.size), tails),
        (rng.integers(0, n_times, edges.size), edges),
        (rng.integers(0, n_times, (6, 257)),
         np.broadcast_to(np.linspace(0.0, 1.0, 257), (6, 257))),
    ]


def test_window_gather_matches_two_index_gather(cmap):
    engine, times = cmap.engine, _pull_back_times(cmap.constants.T)
    engine.table_flow(times, np.arange(len(times)), np.full(len(times), 0.5))
    for which, x in _lookup_cases(len(times), np.random.default_rng(11)):
        got = engine.table_flow(times, which, x)
        want = _gather_table_flow(engine, times, which, x)
        assert got[0].shape == got[1].shape == x.shape
        assert _same_bytes(got[0], want[0]), x.size
        assert _same_bytes(got[1], want[1]), x.size


@pytest.mark.parametrize("which_map", ["certified", "calibration"])
def test_point_lookup_matches_the_frozen_formulas(cmap, calibration_map,
                                                  which_map):
    """table_point, one point in floats, against the frozen all-at-once
    gather on every lookup case and at -0.0, 5e-324 and 1 - 2^-53, each
    point at its own time: the forward and pull-back times of blocks 0..9
    (+-0.0 on the calibration map). Bitwise, signs of zero included."""
    m = cmap if which_map == "certified" else calibration_map
    times = [d * m.schedule.block_time(k) for d in (1.0, -1.0)
             for k in range(10)]
    engine = m.engine
    engine.table_flow(times, np.arange(len(times)), np.full(len(times), 0.5))
    signed = np.array([-0.0, 0.0, 5e-324, 1.0 - 2.0 ** -53, 1.0])
    cases = _lookup_cases(len(times), np.random.default_rng(17)) + [
        (np.full(signed.size, j), signed) for j in range(len(times))]
    for which, x in cases:
        got = [engine.table_point(times[j], xi)
               for j, xi in zip(np.ravel(which).tolist(), np.ravel(x).tolist())]
        assert all(type(y) is float and type(s) is float for y, s in got)
        want = _gather_table_flow(engine, times, which, x)
        for got_part, want_part in zip(zip(*got), want):
            assert _same_bytes(got_part, np.ravel(want_part)), x.size


def test_large_lookup_peaks_at_its_outputs(cmap):
    engine, times = cmap.engine, _pull_back_times(cmap.constants.T)
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, 1 << 20)
    which = rng.integers(0, len(times), x.size)
    engine.table_flow(times, np.arange(len(times)), np.full(len(times), 0.5))
    tracemalloc.start()
    try:
        engine.table_flow(times, which, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the two float64 outputs are 16 MiB; the unblocked lookup peaked at 72
    assert peak < 2 * x.nbytes + 4 * 2 ** 20


def test_threads_share_a_fresh_engine_bitwise(cmap):
    """Four threads (more than the cores) look up disjoint slices of one
    batch on one fresh engine, racing to build its tables and then looking
    up again and again, with the interpreter switching threads as often as
    it can: scratch shared between calls would mix their results. Each
    slice spans three blocks, the last one partial."""
    times = _pull_back_times(cmap.constants.T)[:4]
    rng = np.random.default_rng(9)
    x = rng.uniform(0.0, 1.0, 4 * (2 * flow._BLOCK + 7))
    which = rng.integers(0, len(times), x.size)
    parts = [slice(i, None, 4) for i in range(4)]
    engine = FlowEngine(tol=cmap.constants.tol)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(
                lambda p: [engine.table_flow(times, which[p], x[p])
                           for _ in range(10)], p) for p in parts]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    want = cmap.engine.table_flow(times, which, x)
    for runs, p in zip(got, parts):
        for y, log_slope in runs:
            assert _same_bytes(y, want[0][p])
            assert _same_bytes(log_slope, want[1][p])
    # each time was built once: a lost update would add a row
    assert sorted(engine._table_rows.values()) == list(range(len(times)))


def test_growing_the_stack_keeps_every_table(consts):
    """The stack starts at 16 tables; a 17th time doubles it, and the
    16 tables copied into the new stack stay bitwise, as do their
    lookups."""
    engine = FlowEngine(tol=consts.tol)
    times = [s * consts.T / 2 ** j for j in range(8) for s in (1.0, -1.0)]
    x = np.linspace(0.0, 1.0, 1001)
    which = np.arange(x.size) % len(times)
    before = engine.table_flow(times, which, x)
    assert engine._tables.shape[0] == len(times) == 16
    tables = engine._tables.copy()
    engine.table_point(consts.T / 2 ** 8, 0.5)
    assert engine._tables.shape[0] == 32
    assert engine._tables[:16].tobytes() == tables.tobytes()
    assert engine._table_rows[consts.T / 2 ** 8] == 16
    for got, want in zip(engine.table_flow(times, which, x), before):
        assert _same_bytes(got, want)


def test_threads_read_while_the_stack_grows(consts):
    """Three threads (more than the cores) look up the 16 tables of a
    full stack again and again while a fourth builds two more times,
    which doubles the stack, with the interpreter switching threads as
    often as it can: a reader of either stack sees every table bitwise,
    and the new tables land in rows 16 and 17."""
    times = [s * consts.T / 2 ** j for j in range(9) for s in (1.0, -1.0)]
    x = np.linspace(0.0, 1.0, 257)
    which = np.arange(x.size) % 16
    engine = FlowEngine(tol=consts.tol)
    want = engine.table_flow(times[:16], which, x)
    assert engine._tables.shape[0] == 16
    grown = threading.Event()

    def read():
        got = [engine.table_flow(times[:16], which, x)]
        while not grown.is_set():
            got.append(engine.table_flow(times[:16], which, x))
        return got

    def grow():
        try:
            for t in times[16:]:
                engine.table_point(t, 0.5)
        finally:
            grown.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            readers = [pool.submit(read) for _ in range(3)]
            pool.submit(grow).result(timeout=120)
            runs = [f.result(timeout=120) for f in readers]
    finally:
        sys.setswitchinterval(interval)
    assert engine._tables.shape[0] == 32
    assert [engine._table_rows[t] for t in times[16:]] == [16, 17]
    for got in runs:
        for y, log_slope in got:
            assert _same_bytes(y, want[0])
            assert _same_bytes(log_slope, want[1])


def test_one_point_lookup_copies_no_table(cmap):
    engine, times = cmap.engine, _pull_back_times(cmap.constants.T)
    which, x = np.array([4]), np.array([0.3])
    engine.table_flow(times, np.arange(len(times)), np.full(len(times), 0.5))
    tracemalloc.start()
    try:
        engine.table_flow(times, which, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one table is (TABLE_CELLS + 1) x 4 floats, 512 KiB
    assert peak < 64 * 1024
    # np.take copies nothing from a C-contiguous stack
    assert engine._tables.flags.c_contiguous


@pytest.mark.parametrize("index", [0, -1])
def test_build_check_covers_both_end_cells(consts, monkeypatch, index):
    """The midpoint check reaches the outermost cells it can see.

    The field underflows in the cells next to 0 and 1, where _log_slope
    zeroes both sides of the check, so the perturbed midpoints are the
    first and the last live one. Their displacement is subnormal, so the
    perturbation is absolute: 1e-12.
    """
    solve = flow.integrate_unit_interval
    mid = (np.arange(flow.TABLE_CELLS) + 0.5) / flow.TABLE_CELLS
    live = np.flatnonzero(flow._exponent(mid)[2])[index]
    assert 0 < live < flow.TABLE_CELLS - 1

    def perturbed(f, y0, **kwargs):
        y, err, steps = solve(f, y0, **kwargs)
        if y0.shape[1] == flow.TABLE_CELLS:     # the midpoints' solve
            y[0, live] += 1e-12
        return y, err, steps

    monkeypatch.setattr(flow, "integrate_unit_interval", perturbed)
    engine = FlowEngine(tol=consts.tol)
    with pytest.raises(SolverError, match="cell midpoint"):
        engine.table_flow([consts.T], np.zeros(1, int), np.array([0.5]))
    assert engine._table_rows == {}


# ----------------------------------------------------------------------
# the right-hand sides against frozen copies of their np.where forms
# ----------------------------------------------------------------------

_QUIET = dict(divide="ignore", over="ignore", invalid="ignore")


def _ref_exponent(x):
    g = x * (x - 1.0)
    e = 1.0 / g
    return g, e, (e < 0.0) & (e > flow.UNDERFLOW_EXPONENT)


def _ref_field_arrays(x, order):
    # the kernel as it selected the dead points away with np.where
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(**_QUIET):
        g, e, live = _ref_exponent(x)
        speed = np.exp(np.where(live, e, -np.inf))
        if order == 0:
            return (speed,)
        s = 2.0 * x - 1.0
        h = -s / (g * g)
        d1 = np.where(live, h * speed, 0.0)
        if order == 1:
            return (speed, d1)
        hp = -2.0 / (g * g) + 2.0 * s ** 2 / (g * g * g)
        d2 = np.where(live, (hp + h * h) * speed, 0.0)
    return (speed, d1, d2)


def _ref_exponent_change(x, d, gx, gy):
    return -d * (2.0 * x + d - 1.0) / (gx * gy)


def _ref_field_difference(a, d, xa):
    # every term on every point, the exp of X(a + d) included
    b = a + d
    (xb,) = _ref_field_arrays(b, 0)
    with np.errstate(**_QUIET):
        gb = b * (b - 1.0)
        de = _ref_exponent_change(a, d, a * (a - 1.0), gb)
        smooth = (xa > 0.0) & (gb < 0.0) & (np.abs(de) <= 0.5)
        return np.where(smooth, xa * np.expm1(de), xb - xa)


def _ref_log_slope(x, d):
    with np.errstate(**_QUIET):
        g, _, live = _ref_exponent(x)
        d = np.where(live, d, 0.0)
        y = x + d
        return d, np.where(live, _ref_exponent_change(x, d, g, y * (y - 1.0)),
                           0.0)


def _ref_solve(rhs, y0):
    return flow.integrate_unit_interval(rhs, y0, atol=1e-13)[0]


def _ref_table(t):
    x = np.arange(flow.TABLE_CELLS + 1) / flow.TABLE_CELLS
    (xa,) = _ref_field_arrays(x, 0)

    def rhs(state):
        out = np.empty_like(state)
        np.add(xa, _ref_field_difference(x, state[0], xa), out=out[0])
        out *= t
        return out

    knots = np.zeros((flow.TABLE_CELLS + 1, 2))
    knots[:, 0], log_slope = _ref_log_slope(
        x, _ref_solve(rhs, np.zeros((1, x.size)))[0])
    knots[:, 1] = np.expm1(log_slope) / flow.TABLE_CELLS
    return knots


def _ref_evolve(t, x, order):
    t = np.full(x.size, t)
    y0 = np.zeros((order + 1, x.size))
    y0[0] = x
    y0[1:2] = 1.0

    def rhs(state):
        field = _ref_field_arrays(state[0], order)
        out = np.empty_like(state)
        np.multiply(t, field[0], out=out[0])
        if order >= 1:
            np.multiply(t, field[1], out=out[1])
            out[1] *= state[1]
        if order >= 2:
            acc = field[2] * state[1] ** 2
            acc += field[1] * state[2]
            np.multiply(t, acc, out=out[2])
        return out

    yf = _ref_solve(rhs, y0)
    yf[0] = np.clip(yf[0], 0.0, 1.0)
    return yf


def _ref_evolve_interval(t, x, w):
    t = np.full(x.size, t)

    def rhs(state):
        (s,) = _ref_field_arrays(state[0], 0)
        out = np.empty_like(state)
        np.multiply(t, s, out=out[0])
        np.multiply(t, _ref_field_difference(state[0], state[1], s),
                    out=out[1])
        return out

    yf = _ref_solve(rhs, np.stack([x, w]))
    return np.clip(yf[0], 0.0, 1.0), yf[1]


def _same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def test_right_hand_sides_match_their_where_forms_bitwise(consts):
    """Hoisted constants, shared g, scratch buffers and the fallback exp
    taken only where it is read change no bit of any solve."""
    engine = FlowEngine(tol=1e-13)
    grid = np.linspace(0.0, 1.0, consts.grid_n + 1)
    # underflow tails, endpoints and strays just outside [0, 1], with
    # widths from subnormal to wide enough to leave the smooth branch
    x = np.concatenate([[0.0, 1.0, -1e-12, 1.0 + 1e-12, 5e-324],
                        np.linspace(0.0, 0.0016, 9),
                        np.linspace(0.9984, 1.0, 9), np.linspace(0.1, 0.9, 9)])
    w = np.concatenate([[1e-300, 1e-14, 1e-10, 1e-13, 0.3],
                        np.geomspace(1e-300, 1e-3, 9),
                        np.geomspace(1e-16, 1e-4, 9),
                        np.geomspace(1e-12, 0.09, 9)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1.0, -1.0, 0.5, 1.0 / 64.0):
            assert _same_bytes(engine._build_table(t)[:, :2],
                               _ref_table(t)), t
        for t in (1.0, -0.5):
            assert _same_bytes(np.stack(engine.evolve(t, grid, order=2)),
                               _ref_evolve(t, grid, 2)), t
        for t in (1.0, -1.0, 0.125):
            got = engine.evolve_interval(t, x, w)
            want = _ref_evolve_interval(t, x, w)
            assert all(map(_same_bytes, got, want)), t
