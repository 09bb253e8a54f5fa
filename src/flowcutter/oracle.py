"""Independent cross-checks of the flow and the map, off the hot path.

Nothing in the package imports this module, and it is the only one that
needs scipy (an optional test dependency): every analysis and every CLI
subcommand run on numpy alone. It holds the rectified-time route of the
flow, which shares nothing with the ODE stepper beyond the field formula,
and the raw-coordinate map apply_raw with its affine charts.
"""

from __future__ import annotations

import math

from scipy.integrate import quad
from scipy.optimize import brentq

from . import _checks
from .cookie import CookieMap
from .errors import DomainError
from .flow import _check_flow_args
from .scaled import Locus, ScaledPoint, _pow3

# Domain margin for the rectified-time coordinate: quad must converge at
# epsrel 1e-13, and it warns of roundoff at x <= 0.0028 and x >= 0.9972.
TIME_COORDINATE_MARGIN = 0.003

_MAX_SPEED = math.exp(-4.0)  # X(1/2), the global maximum of the field


# ----------------------------------------------------------------------
# rectified-time route
# ----------------------------------------------------------------------

def time_coordinate(x: float) -> float:
    """tau(x) = integral_{1/2}^x du / X(u), by adaptive quadrature.

    Strictly increasing where defined; tau(1/2) = 0. Only valid
    TIME_COORDINATE_MARGIN away from the endpoints.
    """
    x = _checks.real(x, "time coordinate position", TIME_COORDINATE_MARGIN,
                     1.0 - TIME_COORDINATE_MARGIN)
    if x == 0.5:
        return 0.0
    val, _ = quad(lambda u: math.exp(-1.0 / (u * (u - 1.0))),
                  0.5, x, epsabs=0.0, epsrel=1e-13, limit=400)
    return val


def invert_time_coordinate(theta: float, lo: float, hi: float) -> float:
    """Solve tau(y) = theta for y in [lo, hi] by bracketed root finding."""
    f = lambda y: time_coordinate(y) - theta
    return brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)


def flow_by_time_coordinate(t: float, x: float) -> float:
    """phi_t(x) through the shift identity tau(phi_t(x)) = tau(x) + t.

    Entirely quadrature plus root finding; no shared machinery with the
    ODE route. The bracket uses that the field never moves a point by
    more than |t| * max X < 0.02.
    """
    t, x = _check_flow_args(t, x)
    margin = 1.05 * _MAX_SPEED * abs(t) + 1e-12
    lo = max(TIME_COORDINATE_MARGIN, x - (margin if t < 0.0 else 1e-12))
    hi = min(1.0 - TIME_COORDINATE_MARGIN, x + (margin if t > 0.0 else 1e-12))
    theta = time_coordinate(x) + t
    return invert_time_coordinate(theta, lo, hi)


# ----------------------------------------------------------------------
# raw-coordinate map
# ----------------------------------------------------------------------

def affine_A(n: int, x: float) -> float:
    """Chart A_n(x) = 3^(n+1) x - 2, mapping J_n onto [0,1]."""
    n = _checks.integer(n, "chart index", 0)
    u = _pow3(n + 1) * x - 2.0
    if not -1e-9 <= u <= 1.0 + 1e-9:
        raise DomainError(f"{x!r} is not in J_{n}")
    return min(max(u, 0.0), 1.0)


def affine_B(n: int, u: float) -> float:
    """Chart B_n(u) = (u + 2) / 3^n, mapping [0,1] onto J_{n-1}."""
    n = _checks.integer(n, "chart index", 0)
    u = _checks.real(u, "unit coordinate", 0.0, 1.0)
    return (u + 2.0) / _pow3(n)


def apply_raw(cmap: CookieMap, x: float) -> float:
    """F(x) from the raw-branch formulas, the window flow by the ODE route."""
    p = ScaledPoint.from_raw(x)
    if p.locus is Locus.HOLE:
        raise DomainError("point in the central hole is outside the domain of F")
    if p.locus is Locus.INJ and p.n >= 1:
        u = affine_A(p.n, x)
        y = cmap.engine.flow_position(cmap.schedule.flow_time(p.n), u)
        return affine_B(p.n, y)
    if p.locus is Locus.INJ:
        return 3.0 * x - 2.0
    return 3.0 * x
