"""The shared-step Verner 6(5) stepper against its plain textbook loop."""

import numpy as np
import pytest

from flowcutter import integrate
from flowcutter.errors import SolverError
from flowcutter.flow import _field_arrays
from flowcutter.integrate import (_A, _B6, _MAX_GROW, _MIN_SHRINK, _ORDER,
                                  _SAFETY, _TR, integrate_unit_interval)


def _reference_integrate(f, y0, atol):
    """One copy and `+= (h a_ij) k_j` per stage, then a separate sum over
    the 6th order weights. Returns (y, err_acc, accepted, attempted)."""
    y = np.array(y0, dtype=np.float64, copy=True)
    s, h, err_acc, accepted, attempted = 0.0, 1.0, 0.0, 0, 0
    while 1.0 - s > 1e-16:
        h = min(h, 1.0 - s)
        attempted += 1
        k = [f(y)]
        for row in _A:
            yi = y.copy()
            for a_ij, kj in zip(row, k):
                if a_ij != 0.0:
                    yi += (h * a_ij) * kj
            k.append(f(yi))
        y_new, err_vec = y.copy(), np.zeros_like(y)
        for b_i, tr_i, ki in zip(_B6, _TR, k):
            if b_i != 0.0:
                y_new += (h * b_i) * ki
            if tr_i != 0.0:
                err_vec += (h * tr_i) * ki
        err = float(np.max(np.abs(err_vec)))
        if err <= atol:
            s, y, err_acc, accepted = s + h, y_new, err_acc + err, accepted + 1
            h *= _MAX_GROW if err == 0.0 else min(
                _MAX_GROW, _SAFETY * (atol / err) ** (1.0 / _ORDER))
        else:
            h *= max(_MIN_SHRINK, _SAFETY * (atol / err) ** (1.0 / _ORDER))
    return y, err_acc, accepted, attempted


_MU = np.array([0.1, 0.5, 1.0, 2.0, 3.0])
_T = np.array([1.0, -1.0, 0.5, -0.25, 0.75])


def _van_der_pol(state):
    x, v = state
    return np.stack([v, _MU * (1.0 - x * x) * v - x])


def _field_variations(state):
    # the order-2 variational system that FlowEngine solves
    X, dX, ddX = _field_arrays(state[0], 2)
    return np.stack([_T * X, _T * dX * state[1],
                     _T * (ddX * state[1] ** 2 + dX * state[2])])


@pytest.mark.parametrize("rhs,y0,atol", [
    (_van_der_pol, np.array([[2.0, 1.0, -0.5, 0.3, 1.5],
                             [0.0, 0.5, 1.0, -2.0, 0.1]]), 1e-12),
    (_field_variations, np.array([[0.05, 0.3, 0.5, 0.7, 0.95],
                                  [1.0] * 5, [0.0] * 5]), 1e-13),
])
def test_stepper_matches_reference_loop_bitwise(rhs, y0, atol):
    calls = 0

    def counting(state):
        nonlocal calls
        calls += 1
        return rhs(state)

    y, err_acc, accepted = integrate_unit_interval(counting, y0, atol=atol)
    want, want_err, want_accepted, attempted = _reference_integrate(rhs, y0, atol)
    assert y.tobytes() == want.tobytes()
    assert (err_acc, accepted) == (want_err, want_accepted)
    assert attempted > accepted      # a rejected step is among those counted
    assert calls == 9 * attempted    # the rule behind bench's steps_rejected


def test_step_budget_exhaustion_raises(monkeypatch):
    # y' = -200 y needs far more than three steps at atol 1e-13
    monkeypatch.setattr(integrate, "MAX_STEPS", 3)
    with pytest.raises(SolverError, match="step budget exhausted"):
        integrate_unit_interval(lambda y: -200.0 * y, np.ones((1, 2)))


def test_step_size_underflow_raises():
    # a field that turns over every 1e-6 of y needs steps below 1e-12
    with pytest.raises(SolverError, match="step size underflow"):
        integrate_unit_interval(lambda y: 1e6 * np.sin(1e6 * y),
                                np.ones((1, 1)))
