"""The bump vector field on [0,1], its flow, and certified constants.

The field is X(x) = exp(1/(x(x-1))) on (0,1) with X(0) = X(1) = 0. It is
C-infinity, nonnegative, symmetric about 1/2, and flat to all orders at the
endpoints, so its flow phi_t fixes 0 and 1 together with every spatial
derivative there. The flow, its first two spatial derivatives, and the
constants that the downstream map construction relies on (the flow horizon
T, the curvature bound M, the slope bound B1 = sup|X'|) are all computed
here.

Two independent evaluation routes are provided on purpose:

* the variational route: integrate y' = X(y) jointly with v' = X'(y) v and
  w' = X''(y) v^2 + X'(y) w using the adaptive stepper, and
* the rectified-time route: tau(x) = integral_{1/2}^x du / X(u) by adaptive
  quadrature, inverted by bracketed root finding, which turns the flow into
  a shift tau^{-1}(tau(x) + t).

They share no code beyond the field formula, so their agreement is a real
accuracy check rather than a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import CertificationError, DomainError
from .integrate import integrate_unit_interval
from .optimize import golden_max

# exp() of anything below this underflows float64 to exactly 0.0
UNDERFLOW_EXPONENT = -745.0

# Domain margin for the rectified-time coordinate: 1/X must stay
# representable, which needs 1/(x(1-x)) comfortably below ~709.
TIME_COORDINATE_MARGIN = 0.002

_MAX_SPEED = math.exp(-4.0)  # X(1/2), the global maximum of the field


def _field_arrays(x: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
    """Evaluate X (order 0), X' (order 1), X'' (order 2) on an array.

    Points outside (0,1), and points whose exponent 1/(x(x-1)) underflows
    float64, evaluate to exactly 0.0 in every component. No domain check:
    the stepper may probe a hair outside [0,1] and must see a zero field
    rather than an overflow.

    Branch-free: every component is computed on the whole array and the
    dead points are selected away with np.where, so each live point goes
    through the same operations whatever batch it sits in. g = x(x-1) is
    negative exactly on (0,1); 1/g is -inf at 0 and wherever g is
    subnormal, and +inf at 1, so `live` needs no separate domain test.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g = x * (x - 1.0)
        e = 1.0 / g
        live = (e < 0.0) & (e > UNDERFLOW_EXPONENT)
        speed = np.exp(np.where(live, e, -np.inf))
        if order == 0:
            return (speed,)
        s = 2.0 * x - 1.0
        h = -s / (g * g)
        d1 = np.where(live, h * speed, 0.0)
        if order == 1:
            return (speed, d1)
        hp = -2.0 / (g * g) + 2.0 * s ** 2 / (g ** 3)
        d2 = np.where(live, (hp + h * h) * speed, 0.0)
    return (speed, d1, d2)


def _field_difference(a: np.ndarray, d: np.ndarray, xa: np.ndarray) -> np.ndarray:
    """X(a + d) - X(a), accurate to full relative precision in d.

    xa is X(a), which every caller already holds. Direct subtraction loses
    all digits once d is small. Instead use
    1/g(a+d) - 1/g(a) = -d (2a + d - 1) / (g(a) g(a+d)), which has no
    cancellation, and expand the outer exponential with expm1. Falls back
    to the plain difference whenever either point is outside the live
    region or the exponent change is large (where subtraction is safe).
    """
    a = np.asarray(a, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    b = a + d
    (xb,) = _field_arrays(b, 0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gb = b * (b - 1.0)
        de = -d * (2.0 * a + d - 1.0) / (a * (a - 1.0) * gb)
        # xa > 0 puts a inside (0,1), and gb < 0 puts b there
        smooth = (xa > 0.0) & (gb < 0.0) & (np.abs(de) <= 0.5)
        return np.where(smooth, xa * np.expm1(de), xb - xa)


def _flatten(x, t) -> tuple[np.ndarray, np.ndarray]:
    """x as a float array, and t broadcast against it and flattened."""
    x = np.asarray(x, dtype=np.float64)
    return x, np.ravel(np.broadcast_to(np.asarray(t, dtype=np.float64), x.shape))


@dataclass(frozen=True)
class FieldValue:
    """Pointwise field data: position, X, X', X''."""

    x: float
    speed: float
    d1: float
    d2: float


def vector_field(x: float) -> FieldValue:
    """Closed-form field evaluation with domain checking.

    Endpoint values, and values whose exponent underflows float64, are
    exactly zero in all three components.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"field is defined on [0,1], got {x!r}")
    arr = np.array([x])
    s, d1, d2 = _field_arrays(arr, 2)
    return FieldValue(x=float(x), speed=float(s[0]), d1=float(d1[0]), d2=float(d2[0]))


@dataclass(frozen=True)
class FlowConstants:
    """Certified constants driving the map construction.

    T is the flow horizon with exp(T * B1) <= 3/2, which forces the slope
    bound phi_t' >= 2/3 for |t| <= T. M bounds |phi_t''| for |t| <= 1 (a
    grid supremum padded by 5 percent). B1 = sup |X'|. tol and grid_n
    record how the certification was run.

    The degenerate value T = 0 is allowed only for calibration maps (the
    flow collapses to the identity and every branch becomes affine).
    """

    T: float
    M: float
    B1: float
    tol: float
    grid_n: int


@dataclass(frozen=True)
class FlowSample:
    """One flow evaluation: y = phi_t(x), d1 = phi_t'(x), d2 = phi_t''(x)."""

    t: float
    x: float
    y: float
    d1: float
    d2: float
    err: float


class FlowEngine:
    """Evaluates phi_t and its first two spatial derivatives.

    All batch methods accept numpy arrays for the position and broadcast
    the time against it, integrating the whole batch with one shared
    adaptive step sequence. evolve and the scalar lookups share one
    variational solve (_solve); a scalar lookup is a batch of one at order
    2, memoized at full precision keyed by (t, x). The cache only ever
    stores pure-function results, so concurrent readers are safe and
    results do not depend on cache state. A tolerance outside
    [1e-14, 1e-6] raises DomainError.
    """

    def __init__(self, tol: float = 1e-13):
        if not 1e-14 <= tol <= 1e-6:
            raise DomainError(f"tolerance {tol!r} outside [1e-14, 1e-6]")
        self.tol = tol
        self._cache: dict[tuple[float, float], tuple[float, float, float, float]] = {}

    # ------------------------------------------------------------------
    # batched ODE route
    # ------------------------------------------------------------------

    def _solve(self, t: np.ndarray, x: np.ndarray, order: int):
        """y' = t X(y) with `order` variational rows v' = t X'(y) v and
        w' = t (X''(y) v^2 + X'(y) w), for flat t and x of one length.

        Returns (state, err): state has order + 1 rows, y clamped to [0,1]
        (endpoints are exact fixed points, so only roundoff can stray).
        """
        y0 = np.zeros((order + 1, x.size))
        y0[0] = x
        if order >= 1:
            y0[1] = 1.0

        def rhs(state):
            field = _field_arrays(state[0], order)
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

        yf, err, _ = integrate_unit_interval(rhs, y0, atol=self.tol)
        yf[0] = np.clip(yf[0], 0.0, 1.0)
        return yf, err

    def evolve(self, t, x, order: int = 1):
        """Integrate the flow and its variations for a batch of points.

        Parameters
        ----------
        t : float or ndarray
            Flow time(s), |t| <= 1, broadcast against x.
        x : ndarray
            Initial positions in [0,1].
        order : int
            0 returns (y,); 1 returns (y, d1); 2 returns (y, d1, d2).
        """
        x, flat_t = _flatten(x, t)
        if not np.any(flat_t):
            return (np.array(x, copy=True), np.ones_like(x),
                    np.zeros_like(x))[:order + 1]
        yf, _ = self._solve(flat_t, np.ravel(x), order)
        return tuple(row.reshape(x.shape) for row in yf)

    def evolve_interval(self, t, x_lo, width):
        """Flow an interval [x, x + w] forward, tracking w without cancellation.

        The width obeys w' = t (X(y + w) - X(y)), whose right hand side is
        evaluated by the cancellation-free difference, so the returned
        width retains full relative precision even when it is far below
        the spacing of representable floats around y.

        Returns (y_lo, w_new).
        """
        x_lo, flat_t = _flatten(x_lo, t)
        width = np.asarray(width, dtype=np.float64)
        if not np.any(flat_t):
            return np.array(x_lo, copy=True), np.array(width, copy=True)

        def rhs(state):
            (s,) = _field_arrays(state[0], 0)
            out = np.empty_like(state)
            np.multiply(flat_t, s, out=out[0])
            np.multiply(flat_t, _field_difference(state[0], state[1], s),
                        out=out[1])
            return out

        y0 = np.stack([np.ravel(x_lo), np.ravel(width)])
        yf, _, _ = integrate_unit_interval(rhs, y0, atol=self.tol)
        y_lo = np.clip(yf[0], 0.0, 1.0).reshape(x_lo.shape)
        return y_lo, yf[1].reshape(x_lo.shape)

    # ------------------------------------------------------------------
    # scalar interface
    # ------------------------------------------------------------------

    def _sample(self, t: float, x: float) -> tuple[float, float, float, float]:
        key = (t, x)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if t == 0.0:
            out = (x, 1.0, 0.0, 0.0)
        else:
            yf, err = self._solve(np.array([t]), np.array([x]), 2)
            out = (float(yf[0, 0]), float(yf[1, 0]), float(yf[2, 0]), err)
        if len(self._cache) > 1_000_000:
            self._cache.clear()
        self._cache[key] = out
        return out

    def _check_args(self, t: float, x: float) -> None:
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"position {x!r} outside [0,1]")
        if not -1.0 <= t <= 1.0:
            raise DomainError(f"flow time {t!r} outside [-1,1]")

    def flow(self, t: float, x: float) -> FlowSample:
        """phi_t(x) together with both variations and the error proxy."""
        self._check_args(t, x)
        y, d1, d2, err = self._sample(float(t), float(x))
        return FlowSample(t=float(t), x=float(x), y=y, d1=d1, d2=d2, err=err)

    def flow_position(self, t: float, x: float) -> float:
        self._check_args(t, x)
        return self._sample(float(t), float(x))[0]

    def flow_derivative(self, t: float, x: float) -> float:
        """phi_t'(x), from the first variational equation."""
        self._check_args(t, x)
        return self._sample(float(t), float(x))[1]

    def flow_second_derivative(self, t: float, x: float) -> float:
        """phi_t''(x), from the second variational equation."""
        self._check_args(t, x)
        return self._sample(float(t), float(x))[2]

    # ------------------------------------------------------------------
    # rectified-time route (independent oracle)
    # ------------------------------------------------------------------

    def time_coordinate(self, x: float) -> float:
        """tau(x) = integral_{1/2}^x du / X(u), by adaptive quadrature.

        Strictly increasing where defined; tau(1/2) = 0. Only valid a small
        margin away from the endpoints, where 1/X is still representable.
        """
        lo = TIME_COORDINATE_MARGIN
        if not lo <= x <= 1.0 - lo:
            raise DomainError(
                f"time coordinate needs x in [{lo}, {1 - lo}], got {x!r}")
        if x == 0.5:
            return 0.0
        val, _ = quad(lambda u: math.exp(-1.0 / (u * (u - 1.0))),
                      0.5, x, epsabs=0.0, epsrel=1e-13, limit=400)
        return val

    def invert_time_coordinate(self, theta: float, lo: float, hi: float) -> float:
        """Solve tau(y) = theta for y in [lo, hi] by bracketed root finding."""
        f = lambda y: self.time_coordinate(y) - theta
        return brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)

    def flow_by_time_coordinate(self, t: float, x: float) -> float:
        """phi_t(x) through the shift identity tau(phi_t(x)) = tau(x) + t.

        Entirely quadrature plus root finding; no shared machinery with the
        ODE route. The bracket uses that the field never moves a point by
        more than |t| * max X < 0.02.
        """
        self._check_args(t, x)
        margin = 1.05 * _MAX_SPEED * abs(t) + 1e-12
        lo = max(TIME_COORDINATE_MARGIN, x - (margin if t < 0.0 else 1e-12))
        hi = min(1.0 - TIME_COORDINATE_MARGIN, x + (margin if t > 0.0 else 1e-12))
        theta = self.time_coordinate(x) + t
        return self.invert_time_coordinate(theta, lo, hi)

    # ------------------------------------------------------------------
    # certification
    # ------------------------------------------------------------------

    def certify(self, grid_n: int = 4096) -> FlowConstants:
        """Compute and verify the constants T, M, B1.

        B1 maximizes |X'| over a uniform grid, refined by golden section
        around the two interior critical points of X' (symmetric about
        1/2). T = min(1, ln(3/2)/B1) then guarantees exp(T B1) <= 3/2, and
        the slope bound phi_t' >= 2/3 is verified pointwise on the grid
        for dyadic |t| <= T. M is 1.05 times the grid supremum of
        |phi_t''| over t in {+-1, +-1/2, +-1/4, +-1/8}.

        Raises CertificationError if the 2/3 bound fails anywhere.
        """
        if grid_n < 1024:
            raise DomainError(f"certification grid must be >= 1024, got {grid_n}")
        grid = np.linspace(0.0, 1.0, grid_n + 1)

        (_, d1) = _field_arrays(grid, 1)
        absd1 = np.abs(d1)
        i = int(np.argmax(absd1))
        dx = 1.0 / grid_n
        b1 = float(absd1[i])
        for center in (grid[i], 1.0 - grid[i]):
            lo = max(0.0, center - 2 * dx)
            hi = min(1.0, center + 2 * dx)
            _, peak = golden_max(
                lambda z: abs(float(_field_arrays(np.array([z]), 1)[1][0])),
                lo, hi, tol=1e-14)
            b1 = max(b1, peak)

        T = min(1.0, math.log(1.5) / b1)

        dyadic = [T / 2 ** j for j in range(5)]
        for tv in dyadic:
            for sgn in (1.0, -1.0):
                _, v = self.evolve(sgn * tv, grid, order=1)
                vmin = float(v.min())
                if vmin < 2.0 / 3.0:
                    raise CertificationError(
                        f"slope bound failed: phi'_{sgn * tv:g} min {vmin} < 2/3")

        sup_w = 0.0
        for tv in (1.0, 0.5, 0.25, 0.125):
            for sgn in (1.0, -1.0):
                _, _, w = self.evolve(sgn * tv, grid, order=2)
                sup_w = max(sup_w, float(np.max(np.abs(w))))
        M = 1.05 * sup_w

        return FlowConstants(T=T, M=M, B1=b1, tol=self.tol, grid_n=grid_n)


def certify_constants(grid_n: int = 4096, tol: float = 1e-13) -> FlowConstants:
    """Convenience wrapper: build an engine and certify its constants."""
    return FlowEngine(tol=tol).certify(grid_n=grid_n)
