import math

import numpy as np
import pytest

from flowcutter import CertificationError, FlowEngine
from flowcutter.flow import _field_arrays

# 40-digit reference: the positive critical point of X' and the sup of |X'|
B1_REF = 0.07757846043434822
B1_ARGMAX = 0.30334005340483568


def test_slope_bound_value(consts):
    assert consts.B1 == pytest.approx(B1_REF, abs=1e-13)
    assert type(consts.B1) is float


def test_slope_bound_dominates_dense_grid(consts):
    xs = np.linspace(0.0, 1.0, 2_000_001)
    _, d1 = _field_arrays(xs, 1)
    assert consts.B1 >= np.max(np.abs(d1)) - 1e-15


def test_horizon_saturates_at_one(consts):
    # ln(3/2)/B1 ~ 5.2, so the horizon clips at 1
    assert consts.T == 1.0
    assert math.log(1.5) / consts.B1 > 1.0


def test_horizon_forces_slope_floor(consts):
    assert math.exp(consts.T * consts.B1) <= 1.5


def test_slope_floor_verified_on_grid(engine, consts):
    xs = np.linspace(0.0, 1.0, 1025)
    for t in (consts.T, -consts.T, consts.T / 2):
        _, v = engine.evolve(t, xs, order=1)
        assert v.min() >= 2.0 / 3.0
        # pointwise Gronwall envelope
        assert v.min() >= math.exp(-consts.B1 * consts.T) - 1e-9
        assert v.max() <= math.exp(consts.B1 * consts.T) + 1e-9


def test_curvature_bound_covers_grid(engine, consts):
    xs = np.linspace(0.0, 1.0, 513)
    sup = 0.0
    for t in (1.0, -1.0, 0.5, -0.5):
        _, _, w = engine.evolve(t, xs, order=2)
        sup = max(sup, float(np.max(np.abs(w))))
    assert math.isfinite(consts.M)
    assert sup <= consts.M
    # the 5 percent pad means the bound is snug, not vacuous
    assert consts.M <= 1.2 * sup


def test_certify_refuses_a_slope_below_two_thirds(monkeypatch):
    # phi' halved at t = 1/16, the last positive slope time, falls to
    # about 1/2: every earlier time passes, and this one names itself
    derivatives = FlowEngine._derivatives

    def halved(self, t, x):
        slope, curvature = derivatives(self, t, x)
        return (slope / 2.0 if t == 0.0625 else slope), curvature

    monkeypatch.setattr(FlowEngine, "_derivatives", halved)
    with pytest.raises(CertificationError, match=r"phi'_0\.0625 min"):
        FlowEngine().certify(grid_n=1024)


def _oracle_derivatives(mp, t, x):
    """phi_t'(x) and phi_t''(x) in the working precision of mp.

    phi_t(x) = v solves int_x^v du/X = t (Newton, as in
    test_tables_against_30_digit_oracle); then phi_t' = X(v)/X(x) and
    phi_t'' = phi_t' (e'(v) phi_t' - e'(x)), e'(u) = -(2u - 1)/(u(u - 1))^2,
    whose cancellation costs a few of the 30 digits.
    """
    X = lambda u: mp.exp(1 / (u * (u - 1)))
    de = lambda u: -(2 * u - 1) / (u * (u - 1)) ** 2
    x, t = mp.mpf(float(x)), mp.mpf(t)
    v = x + t * X(x)
    for _ in range(5):
        step = (mp.quad(lambda u: 1 / X(u), [x, v]) - t) * X(v)
        v -= step
    assert abs(step) <= mp.mpf(10) ** -25
    slope = X(v) / X(x)
    return slope, slope * (de(v) * slope - de(x))


def test_certified_derivatives_against_30_digit_oracle(engine, consts):
    # certification's closed forms for phi_t' and phi_t'' at the grid
    # points nearest the tails, the argmax of |phi''| (0.186), the middle
    # and the right shoulder, against the 30-digit oracle
    mp = pytest.importorskip("mpmath").mp
    grid = np.linspace(0.0, 1.0, consts.grid_n + 1)
    at = [int(round(x * consts.grid_n)) for x in (0.03, 0.186, 0.5, 0.83, 0.97)]
    worst_slope = worst_curvature = 0.0
    with mp.workdps(30):
        for t in (1.0, -1.0, 0.5, -0.5):
            slope, curvature = engine._derivatives(t, grid)
            for i in at:
                want_slope, want_curvature = _oracle_derivatives(mp, t, grid[i])
                worst_slope = max(worst_slope, float(abs(slope[i] - want_slope)))
                worst_curvature = max(worst_curvature,
                                      float(abs(curvature[i] - want_curvature)))
    print(f"closed forms vs 30-digit oracle: |d phi'| {worst_slope:.2e}, "
          f"|d phi''| {worst_curvature:.2e}")
    assert worst_slope <= 4e-16
    # the displacement's absolute error, relative to d ~ 0.018 at x = 1/2
    assert worst_curvature <= 1e-14


def test_curvature_bound_against_30_digit_oracle(engine, consts):
    # the grid sup of |phi''| over the curvature times sits at the points
    # nearest 0.186 (t = 1) and 0.814 (t = -1): every other grid value is
    # below it by far more than the closed forms' error, so M is 1.05 times
    # the oracle's sup there
    mp = pytest.importorskip("mpmath").mp
    grid = np.linspace(0.0, 1.0, consts.grid_n + 1)
    top = {1.0: int(round(0.186 * consts.grid_n))}
    top[-1.0] = consts.grid_n - top[1.0]
    with mp.workdps(30):
        sup = max(abs(_oracle_derivatives(mp, t, grid[i])[1])
                  for t, i in top.items())
        for tv in (1.0, 0.5, 0.25, 0.125):
            for t in (tv, -tv):
                curvature = np.abs(engine._derivatives(t, grid)[1])
                if t in top:
                    curvature[top[t]] = 0.0
                assert float(sup) - curvature.max() > 1e-9
        gap = float(abs(consts.M / (mp.mpf("1.05") * sup) - 1))
    print(f"M {consts.M!r} vs 1.05 x oracle sup {float(1.05 * sup)!r}: "
          f"rel {gap:.2e}")
    assert gap <= 1e-15


def test_curvature_keeps_its_digits_in_the_tail(engine, consts):
    # at the grid point nearest 0.03, t = 1, phi' - 1 ~ 1e-12 and
    # e' ~ 1e3: the naive e'(y) phi' - e'(x) cancels to phi'' ~ 1.4e-9 and
    # keeps about four digits, the closed form all but the last
    mp = pytest.importorskip("mpmath").mp
    grid = np.linspace(0.0, 1.0, consts.grid_n + 1)
    i = int(round(0.03 * consts.grid_n))
    x = grid[i]
    slope, curvature = engine._derivatives(1.0, grid)
    y = x + engine._displacement(1.0, grid)[i]
    de = lambda u: -(2.0 * u - 1.0) / (u * (u - 1.0)) ** 2
    naive = slope[i] * (de(y) * slope[i] - de(x))
    with mp.workdps(30):
        want = _oracle_derivatives(mp, 1.0, x)[1]
        rel = float(abs(curvature[i] / want - 1))
        rel_naive = float(abs(naive / want - 1))
    print(f"phi''_1({x}) = {float(want):.3e}: closed form rel {rel:.1e}, "
          f"naive rel {rel_naive:.1e}")
    assert rel <= 1e-14
    assert rel_naive >= 1e-7


def test_certify_makes_no_variational_solve(monkeypatch):
    def refused(self, t, x, order):
        raise AssertionError("certification made a variational solve")

    monkeypatch.setattr(FlowEngine, "_solve", refused)
    constants = FlowEngine().certify(grid_n=1024)
    assert constants.T == 1.0 and math.isfinite(constants.M)


def test_certify_ignores_built_tables(consts):
    # certification solves its own displacements: an engine whose tables
    # are built certifies bitwise as a fresh one does
    engine = FlowEngine(tol=consts.tol)
    engine.table_flow([1.0, -0.5], np.array([0, 1]), np.array([0.3, 0.7]))
    again = engine.certify(grid_n=consts.grid_n)
    assert again == consts
    assert again.M.hex() == consts.M.hex()


def test_grid_precondition():
    with pytest.raises(ValueError):
        FlowEngine().certify(grid_n=512)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        FlowEngine(tol=1e-20)
    with pytest.raises(ValueError):
        FlowEngine(tol=1e-3)


def test_certification_is_reproducible(engine, consts):
    again = engine.certify(grid_n=4096)
    assert again == consts
