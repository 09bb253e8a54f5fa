"""The bump vector field on [0,1], its flow, and certified constants.

The field is X(x) = exp(1/(x(x-1))) on (0,1) with X(0) = X(1) = 0. It is
C-infinity, nonnegative, symmetric about 1/2, and flat to all orders at the
endpoints, so its flow phi_t fixes 0 and 1 together with every spatial
derivative there. The flow, its first two spatial derivatives, and the
constants that the downstream map construction relies on (the flow horizon
T, the curvature bound M, the slope bound B1 = sup|X'|) are all computed
here.

Three evaluation routes are provided:

* the table route (FlowEngine.table_flow), the hot path of every pull-back
  of points, interval endpoints and (by the mean-value rule) narrow widths,
  and of the forward window orbits (CookieMap.iterate) and the strong-bound
  witness: a cubic Hermite table of the displacement
  delta_t(x) = phi_t(x) - x on a uniform grid, built once per flow time
  from the displacement ODE delta' = t X(x + delta) and checked against
  that ODE at every cell midpoint when it is built. The log slope
  log phi_t'(x) follows from delta in closed form, so each result is a pure
  function of (t, x), whatever batch it is computed in;
* the variational route: integrate y' = X(y) jointly with v' = X'(y) v and
  w' = X''(y) v^2 + X'(y) w using the adaptive stepper. It serves arbitrary
  times, the scalar lookups (each an uncached one-column solve), the few
  interval widths too wide for the mean-value rule (evolve_interval) and
  certification, and is the oracle the tables are measured against;
* the rectified-time route: tau(x) = integral_{1/2}^x du / X(u) by adaptive
  quadrature, inverted by bracketed root finding, which turns the flow into
  a shift tau^{-1}(tau(x) + t).

The last two share no code beyond the field formula, so their agreement is
a real accuracy check rather than a tautology.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import CertificationError, DomainError, SolverError
from .integrate import integrate_unit_interval
from .optimize import golden_max

# exp() of anything below this underflows float64 to exactly 0.0
UNDERFLOW_EXPONENT = -745.0

# Domain margin for the rectified-time coordinate: 1/X must stay
# representable, which needs 1/(x(1-x)) comfortably below ~709.
TIME_COORDINATE_MARGIN = 0.002

_MAX_SPEED = math.exp(-4.0)  # X(1/2), the global maximum of the field

# Uniform cells of a displacement table. A power of two, so x * cells and the
# cell offset are exact. The cubic Hermite error in the log slope measures
# 1.0e-15 at |t| = 1 with 2^14 cells (1.2e-16 with 2^15, 1.6e-14 with 2^13);
# 2^15 cells would double the build's working set for no gain over the ODE's
# own error.
TABLE_CELLS = 1 << 14
# A table must reproduce the displacement ODE at every cell midpoint to this
# bound, in the displacement and in the log slope.
TABLE_CHECK = 1e-14
_ENDS = np.array([0, 1])   # a cell's left and right knot


def _exponent(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g = x(x-1), the exponent e = 1/g of X, and the live mask.

    A point is live when X(x) = exp(e) is a positive float: e < 0 puts x
    inside (0,1), and e > UNDERFLOW_EXPONENT keeps exp(e) from underflowing.
    Call under np.errstate: e is +-inf at the endpoints.
    """
    g = x * (x - 1.0)
    e = 1.0 / g
    return g, e, (e < 0.0) & (e > UNDERFLOW_EXPONENT)


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
        g, e, live = _exponent(x)
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


def _exponent_change(x, d, gx, gy):
    """e(x + d) - e(x) for the exponent e = 1/g of X, given gx = g(x) and
    gy = g(x + d): written as -d (2x + d - 1) / (g(x) g(x + d)), it has no
    cancellation and keeps the relative precision of d."""
    return -d * (2.0 * x + d - 1.0) / (gx * gy)


def _field_difference(a: np.ndarray, d: np.ndarray, xa: np.ndarray) -> np.ndarray:
    """X(a + d) - X(a), accurate to full relative precision in d.

    xa is X(a), which every caller already holds. Direct subtraction loses
    all digits once d is small. Instead take the exponent change from
    _exponent_change, which has no cancellation, and expand the outer
    exponential with expm1. Falls back to the plain difference whenever
    either point is outside the live region or the exponent change is
    large (where subtraction is safe).
    """
    a = np.asarray(a, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    b = a + d
    (xb,) = _field_arrays(b, 0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gb = b * (b - 1.0)
        de = _exponent_change(a, d, a * (a - 1.0), gb)
        # xa > 0 puts a inside (0,1), and gb < 0 puts b there
        smooth = (xa > 0.0) & (gb < 0.0) & (np.abs(de) <= 0.5)
        return np.where(smooth, xa * np.expm1(de), xb - xa)


def _log_slope(x: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The displacement d = phi_t(x) - x and log phi_t'(x), dead x masked.

    phi_t'(x) = X(phi_t x) / X(x), so the log slope is the exponent change
    e(x + d) - e(x), which keeps the relative precision of d, tiny as d is
    in the flat tails. Where X(x) underflows (and at the endpoints) the
    flow is the identity: d and the log slope are returned as 0.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g, _, live = _exponent(x)
        d = np.where(live, d, 0.0)
        y = x + d
        return d, np.where(live, _exponent_change(x, d, g, y * (y - 1.0)), 0.0)


def _cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The table cell holding each x in [0,1], and the offset theta in it.

    x * TABLE_CELLS and theta are exact; x = 1 sits at theta = 1 of the
    last cell.
    """
    s = x * TABLE_CELLS
    cell = np.clip(np.floor(s), 0.0, TABLE_CELLS - 1.0)
    return cell.astype(np.intp), s - cell


def _hermite(knots: np.ndarray, theta) -> np.ndarray:
    """The cubic Hermite interpolant of delta in the cell offset theta.

    knots[..., j, :] holds (delta, h delta') at the cell's left (j = 0) and
    right (j = 1) end, h = 1/TABLE_CELLS.
    """
    d0, m0 = knots[..., 0, 0], knots[..., 0, 1]
    d1, m1 = knots[..., 1, 0], knots[..., 1, 1]
    c2 = 3.0 * (d1 - d0) - 2.0 * m0 - m1
    c3 = 2.0 * (d0 - d1) + m0 + m1
    return d0 + theta * (m0 + theta * (c2 + theta * c3))


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
    bound phi_t' >= 2/3 for |t| <= T. M is 1.05 times the grid supremum
    of |phi_t''| over the sampled times t in {+-1, +-1/2, +-1/4, +-1/8},
    not over every |t| <= 1. B1 = sup |X'|. tol and grid_n record how the
    certification was run.

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

    table_flow, the pull-back hot path, reads phi_t and log phi_t' from a
    displacement table per flow time, built lazily and thread-safely once
    per engine; each point's result is a pure function of (t, x). The ODE
    methods accept numpy arrays for the position and broadcast the time
    against it, integrating the whole batch with one shared adaptive step
    sequence. evolve and the scalar lookups share one variational solve
    (_solve); a scalar lookup is a batch of one at order 2, solved afresh
    on every call. The tables are the engine's only state. A tolerance
    outside [1e-14, 1e-6] raises DomainError.
    """

    def __init__(self, tol: float = 1e-13):
        if not 1e-14 <= tol <= 1e-6:
            raise DomainError(f"tolerance {tol!r} outside [1e-14, 1e-6]")
        self.tol = tol
        # displacement tables: row _table_rows[t] of _tables is time t
        self._table_lock = threading.Lock()
        self._table_rows: dict[float, int] = {}
        self._tables = np.empty((0, TABLE_CELLS + 1, 2))

    # ------------------------------------------------------------------
    # table route (the pull-back hot path)
    # ------------------------------------------------------------------

    def table_flow(self, times, which: np.ndarray, x: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """phi_t(x) and log phi_t'(x) with t = times[which], from the tables.

        times is a short sequence of flow times, which an integer array of
        indices into it (one per point) and x the positions in [0,1]. A
        time's table is built on its first use. Each point costs one
        gather of its cell's two knots from the (times x knots) array, the
        Hermite cubic in the exact cell offset, and the closed-form log
        slope; no step controller is shared, so the results are bitwise the
        same whatever batch a point is evaluated in.
        """
        rows = np.array([self._table_row(float(t)) for t in times],
                        dtype=np.intp)
        x = np.asarray(x, dtype=np.float64)
        cell, theta = _cells(x)
        knots = self._tables[rows[which][..., None], cell[..., None] + _ENDS]
        d, log_slope = _log_slope(x, _hermite(knots, theta))
        return x + d, log_slope

    def _table_row(self, t: float) -> int:
        """The row of time t in _tables, building it on first use.

        The lock makes concurrent first uses share one build. _tables is
        replaced before the row is published, so a reader that finds a row
        also finds it in the array it reads next.
        """
        row = self._table_rows.get(t)
        if row is None:
            with self._table_lock:
                row = self._table_rows.get(t)
                if row is None:
                    knots = self._build_table(t)
                    self._tables = np.concatenate([self._tables, knots[None]])
                    row = self._table_rows[t] = len(self._table_rows)
        return row

    def _build_table(self, t: float) -> np.ndarray:
        """The Hermite knots of delta_t, shape (TABLE_CELLS + 1, 2).

        Row i holds delta_t and h delta_t' at x_i = i h, h = 1/TABLE_CELLS.
        delta comes from _displacement, and delta' = phi_t' - 1 from the
        closed-form log slope. The table is then evaluated at every cell
        midpoint and must reproduce a second displacement solve there, in
        delta and in the log slope, to TABLE_CHECK, else SolverError. Time
        0 is the zero table, with no solve.
        """
        knots = np.zeros((TABLE_CELLS + 1, 2))
        if t == 0.0:
            return knots
        x = np.arange(TABLE_CELLS + 1) / TABLE_CELLS
        knots[:, 0], log_slope = _log_slope(x, self._displacement(t, x))
        knots[:, 1] = np.expm1(log_slope) / TABLE_CELLS

        mid = (x[:-1] + x[1:]) / 2.0
        cells = np.arange(TABLE_CELLS)[:, None] + _ENDS
        got = _log_slope(mid, _hermite(knots[cells], 0.5))
        want = _log_slope(mid, self._displacement(t, mid))
        miss = max(float(np.max(np.abs(g - w))) for g, w in zip(got, want))
        if not miss <= TABLE_CHECK:
            raise SolverError(
                f"flow table at t={t:g} misses its ODE by {miss:.3e} at a "
                f"cell midpoint (bound {TABLE_CHECK:.0e})")
        return knots

    def _displacement(self, t: float, x: np.ndarray) -> np.ndarray:
        """delta_t(x) = phi_t(x) - x from its own ODE, one column per point.

        delta' = t (X(x) + (X(x + delta) - X(x))), the bracket evaluated by
        the cancellation-free _field_difference, so delta keeps its
        relative precision in the flat tails, where it is far below the
        spacing of floats around x. Where X(x) underflows, delta stays
        exactly 0.
        """
        (xa,) = _field_arrays(x, 0)

        def rhs(state):
            out = np.empty_like(state)
            np.add(xa, _field_difference(x, state[0], xa), out=out[0])
            out *= t
            return out

        return integrate_unit_interval(rhs, np.zeros((1, x.size)),
                                       atol=self.tol)[0][0]

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

    def _check_args(self, t: float, x: float) -> None:
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"position {x!r} outside [0,1]")
        if not -1.0 <= t <= 1.0:
            raise DomainError(f"flow time {t!r} outside [-1,1]")

    def flow(self, t: float, x: float) -> FlowSample:
        """phi_t(x), both variations and the error proxy: one uncached solve."""
        self._check_args(t, x)
        t, x = float(t), float(x)
        if t == 0.0:
            return FlowSample(t=t, x=x, y=x, d1=1.0, d2=0.0, err=0.0)
        yf, err = self._solve(np.array([t]), np.array([x]), 2)
        return FlowSample(t=t, x=x, y=float(yf[0, 0]), d1=float(yf[1, 0]),
                          d2=float(yf[2, 0]), err=err)

    def flow_position(self, t: float, x: float) -> float:
        return self.flow(t, x).y

    def flow_derivative(self, t: float, x: float) -> float:
        """phi_t'(x), from the first variational equation."""
        return self.flow(t, x).d1

    def flow_second_derivative(self, t: float, x: float) -> float:
        """phi_t''(x), from the second variational equation."""
        return self.flow(t, x).d2

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
