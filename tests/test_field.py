import math
import warnings

import numpy as np
import pytest

from flowcutter import DomainError, vector_field
from flowcutter.flow import _field_arrays, _field_difference


def test_endpoints_are_exact_zeros():
    for x in (0.0, 1.0):
        fv = vector_field(x)
        assert fv.speed == 0.0 and fv.d1 == 0.0 and fv.d2 == 0.0


def test_peak_value_at_center():
    # 1/(0.5 * -0.5) = -4 exactly, so the peak is bitwise exp(-4)
    assert vector_field(0.5).speed == math.exp(-4.0)


def test_speed_bounded_by_peak():
    xs = np.linspace(0.0, 1.0, 10001)
    (speed,) = _field_arrays(xs, 0)
    assert speed.max() == math.exp(-4.0)
    assert speed.min() == 0.0


def test_underflow_region_is_exactly_zero():
    # exponent -1/(0.001 * 0.999) ~ -1001 is far past the float64 floor
    assert math.exp(-1001.001) == 0.0
    fv = vector_field(0.001)
    assert fv.speed == 0.0 and fv.d1 == 0.0 and fv.d2 == 0.0
    assert vector_field(0.0015).speed > 0.0


def test_derivative_sign_structure():
    assert vector_field(0.5).d1 == 0.0
    for x in (0.05, 0.2, 0.45):
        assert vector_field(x).d1 > 0.0
        assert vector_field(1.0 - x).d1 < 0.0


def test_symmetry_about_center():
    for x in (0.1, 0.25, 0.4):
        assert vector_field(x).speed == pytest.approx(
            vector_field(1.0 - x).speed, rel=1e-15)


def test_first_derivative_against_complex_step():
    h = 1e-20
    for x in (0.05, 0.2, 0.35, 0.65, 0.8, 0.95):
        z = complex(x, h)
        oracle = (np.exp(1.0 / (z * (z - 1.0)))).imag / h
        assert vector_field(x).d1 == pytest.approx(oracle, rel=1e-14)


def test_second_derivative_against_step_of_first():
    h = 1e-6
    for x in (0.1, 0.3, 0.45, 0.7, 0.9):
        fd = (vector_field(x + h).d1 - vector_field(x - h).d1) / (2 * h)
        assert vector_field(x).d2 == pytest.approx(fd, rel=1e-7)


def test_domain_error_outside_unit_interval():
    with pytest.raises(DomainError):
        vector_field(-0.1)
    with pytest.raises(DomainError):
        vector_field(1.5)


def test_internal_evaluator_tolerates_stray_points():
    # the stepper may probe slightly outside [0,1]; must see zero, not inf
    (speed,) = _field_arrays(np.array([-1e-12, 1.0 + 1e-12, 2.0]), 0)
    assert np.all(speed == 0.0)


def test_field_difference_matches_plain_subtraction_when_safe():
    a = np.array([0.2, 0.4, 0.7])
    d = np.array([0.05, 0.1, 0.01])
    (xa,) = _field_arrays(a, 0)
    (xb,) = _field_arrays(a + d, 0)
    assert _field_difference(a, d, xa) == pytest.approx(xb - xa, rel=1e-13)


def test_field_difference_keeps_relative_precision_for_tiny_gaps():
    a = np.array([0.3])
    d = np.array([1e-13])
    got = float(_field_difference(a, d, _field_arrays(a, 0)[0])[0])
    # first-order oracle: d * X'(a), with curvature correction ~ 1e-13
    want = 1e-13 * vector_field(0.3).d1
    assert got == pytest.approx(want, rel=1e-10)


def test_field_difference_handles_endpoint_anchors():
    # left endpoint anchored at zero: difference is X(d) - X(0) = X(d)
    a = np.array([0.0])
    d = np.array([0.25])
    (xa,) = _field_arrays(a, 0)
    assert float(_field_difference(a, d, xa)[0]) == vector_field(0.25).speed


def test_kernel_is_batch_independent_and_warning_free():
    # x_c solves 1/(x(x-1)) = -745, the float64 underflow exponent; a 1e-3
    # relative step either way lands on either side of it
    x_c = 0.5 * (1.0 - math.sqrt(1.0 - 4.0 / 745.0))
    live_x = [0.5, 0.3, 0.9, x_c * (1.0 + 1e-3), 1.0 - x_c * (1.0 + 1e-3)]
    dead_x = [0.0, 1.0, -1e-12, 1.0 + 1e-12, 5e-324, 1.0 - 2.0 ** -53,
              0.001, x_c * (1.0 - 1e-3), 1.0 - x_c * (1.0 - 1e-3), -2.0, 3.0]
    xs = np.array(live_x + dead_x)
    live = np.arange(xs.size) < len(live_x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        whole = _field_arrays(xs, 2)
        backward = [c[::-1] for c in _field_arrays(xs[::-1], 2)]
        single = [np.concatenate(c) for c in
                  zip(*(_field_arrays(xs[i:i + 1], 2) for i in range(xs.size)))]
    for comp, rev, one in zip(whole, backward, single):
        assert comp.tobytes() == rev.tobytes() == one.tobytes()
        assert comp[~live].tobytes() == np.zeros(len(dead_x)).tobytes()
    assert np.all(whole[0][live] > 0.0)
