import math

import numpy as np
import pytest

from flowcutter import FlowEngine
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
