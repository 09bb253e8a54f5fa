import math

import numpy as np
import pytest

from flowcutter.optimize import golden_max, golden_min


def bumpy(x):
    """An elementwise test function with one maximum per short bracket."""
    return np.sin(7.0 * x) + 0.3 * np.cos(19.0 * x) - 0.1 * x * x


def test_batch_returns_what_each_bracket_returns_alone():
    a = np.linspace(-2.0, 2.0, 37)
    b = a + np.linspace(0.05, 0.4, 37)
    x, y = golden_max(bumpy, a, b, 40)
    for i in range(a.size):
        xi, yi = golden_max(bumpy, a[i:i + 1], b[i:i + 1], 40)
        assert (x[i], y[i]) == (xi[0], yi[0])
        x0, y0 = golden_max(bumpy, float(a[i]), float(b[i]), 40)
        assert (x[i], y[i]) == (float(x0), float(y0))


def test_finds_known_maxima():
    parabola = lambda x: -(x - 0.3) ** 2
    x, y = golden_max(parabola, np.array([0.0, 0.25]), np.array([1.0, 5.0]), 60)
    assert x == pytest.approx([0.3, 0.3], abs=1e-8)
    assert y == pytest.approx([0.0, 0.0], abs=1e-15)
    x, y = golden_max(np.sin, np.array([1.0, 7.0]), np.array([2.0, 8.0]), 60)
    # a top at value 1 is flat to rounding over about sqrt(2 eps) = 2.1e-8
    assert x == pytest.approx([math.pi / 2, 5 * math.pi / 2], abs=5e-8)
    assert y == pytest.approx([1.0, 1.0], abs=1e-15)
    # the result is one of the evaluated points, with its own value
    assert np.array_equal(y, np.sin(x))


def test_evaluation_count_and_final_width():
    calls = []

    def f(x):
        calls.append(x.copy())
        return -np.abs(x - 0.123)

    a, b = np.array([0.0]), np.array([1.0])
    golden_max(f, a, b, 30)
    assert len(calls) == 32
    last_two = sorted(float(c[0]) for c in calls[-2:])
    assert last_two[1] - last_two[0] <= ((math.sqrt(5) - 1) / 2) ** 30


def test_min_is_the_negated_max():
    a = np.linspace(-1.0, 1.0, 9)
    b = a + 0.3
    xm, ym = golden_min(bumpy, a, b, 45)
    xn, yn = golden_max(lambda x: -bumpy(x), a, b, 45)
    assert np.array_equal(xm, xn)
    assert np.array_equal(ym, -yn)
    assert np.array_equal(ym, bumpy(xm))
