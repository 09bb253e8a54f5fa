"""The bump vector field on [0,1], its flow, and certified constants.

The field is X(x) = exp(1/(x(x-1))) on (0,1) with X(0) = X(1) = 0. It is
C-infinity, nonnegative, symmetric about 1/2, and flat to all orders at the
endpoints, so its flow phi_t fixes 0 and 1 together with every spatial
derivative there. The flow, its first two spatial derivatives, and the
constants that the downstream map construction relies on (the flow horizon
T, the curvature bound M, the slope bound B1 = sup|X'|) are all computed
here.

Two evaluation routes are provided:

* the table route, the hot path of every pull-back of points, interval
  endpoints and (by the mean-value rule) narrow widths, and of the forward
  map (CookieMap.apply, derivative and iterate) and the strong-bound
  witness: a cubic Hermite table of the displacement
  delta_t(x) = phi_t(x) - x on a uniform grid, built once per flow time and
  engine, lazily on the first read and under a lock, from the displacement
  ODE delta' = t X(x + delta), and checked against that ODE at every cell
  midpoint when it is built. Each table has one row of four floats per
  knot x_i = i/TABLE_CELLS: the knot (d, h d') and the Horner
  coefficients c2, c3 of the Hermite cubic on cell i, computed once when
  the table is built (the last knot's row, with no cell, holds zeros
  there). An engine keeps its tables in one stack. One set of formulas
  reads them: the cell and its exact offset theta (_cells), the cubic
  d0 + theta (m0 + theta (c2 + theta c3)) from the cell's row, and the
  log slope log phi_t'(x) from delta in closed form (_exponent_change).
  Two kernels run them. The block kernel (FlowEngine.table_flow, through
  _table_lookup, which also serves the build's check) runs in blocks of
  _BLOCK points that stay in cache: each block takes each point's
  32-byte row from the stack with one np.take, evaluates the formulas on
  arrays (_log_slope) and copies its results into the outputs. A
  lookup's memory is its outputs plus one block's temporaries (a
  2^20-point lookup peaks at its 16 MiB of outputs plus under 1 MiB), and
  a lookup of one block is a single pass. The point kernel
  (FlowEngine.table_point) evaluates the same formulas on one point in
  Python floats, without numpy's fixed cost per array call; it serves the
  forward step and the pull-back of single points. The formulas use only
  +, -, *, / and floor, never exp or log, so floats and arrays round
  alike: each result is a pure function of (t, x), bitwise the same
  whatever kernel, batch or block computes it;
* the variational route: integrate y' = X(y) jointly with v' = X'(y) v and
  w' = X''(y) v^2 + X'(y) w using the adaptive stepper, in batches
  (evolve) or one column at a time (flow). It serves the junction check
  (CookieMap.check_c1_boundary, three positions-only batches per report),
  the few interval widths too wide for the mean-value rule
  (evolve_interval) and the raw-coordinate cross-check oracle.apply_raw,
  and is the oracle the tables and certification are measured against.
  Certification uses neither route: it solves the tables' displacement
  ODE on its own grid, builds no table, and takes phi_t' and phi_t''
  from that solve in closed form (FlowEngine._derivatives).

A third route, the rectified-time quadrature in flowcutter.oracle, shares
no code with these beyond the field formula, so their agreement with it is
a real accuracy check rather than a tautology.

The ODE right-hand sides rest on two pointwise kernels: _field_arrays for
X, X', X'' (the variational solves) and _FieldDifference for the
cancellation-free X(a + d) - X(a) (the displacement ODE of the table
builds and the interval width). Each right-hand side call enters
np.errstate once and shares g = x(x-1) between the kernels that need it;
the displacement ODE makes its anchor data and scratch arrays once per
solve. Every point's result is the same bits whatever batch it is in.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import _checks
from .errors import CertificationError, DomainError, SolverError
from .integrate import integrate_unit_interval
from .optimize import golden_max

# exp() of anything below this underflows float64 to exactly 0.0
UNDERFLOW_EXPONENT = -745.0

# Uniform cells of a displacement table. A power of two, so x * cells and the
# cell offset are exact. The cubic Hermite error in the log slope measures
# 1.0e-15 at |t| = 1 with 2^14 cells (1.2e-16 with 2^15, 1.6e-14 with 2^13);
# 2^15 cells would double the build's working set for no gain over the ODE's
# own error.
TABLE_CELLS = 1 << 14
# A table must reproduce the displacement ODE at every cell midpoint to this
# bound, in phi_t and in the log slope.
TABLE_CHECK = 1e-14
# Golden-section steps of the B1 search on four-cell brackets (width
# 4/4096): they shrink to 1.3e-14, the resolution of a tol-1e-14 search.
_B1_GOLDEN_STEPS = 52
# np.errstate for the field kernels: 1/g is +-inf at the endpoints, and
# dead points may overflow or make NaNs, which are overwritten
_QUIET = dict(divide="ignore", over="ignore", invalid="ignore")
# Points per block of a table lookup. A block's temporaries, about 80
# bytes a point (0.6 MiB), fit a core's 2 MiB L2 cache: on 2^19 random
# points (2-core Xeon VM, medians of 8 rounds) 2^13 took 46 ns a point,
# 2^12 and 2^14 to 2^16 49-58, 2^11 73 and 2^17 94; the unblocked lookup
# took about 100. A lookup peaks at its outputs plus one block's
# temporaries. lookup_blocks hands the blocks out.
_BLOCK = 1 << 13


def _exponent(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """g = x(x-1), the exponent e = 1/g of X, and the live mask.

    A point is live when X(x) = exp(e) is a positive float: e < 0 puts x
    inside (0,1), and e > UNDERFLOW_EXPONENT keeps exp(e) from underflowing.
    Call under np.errstate: e is +-inf at the endpoints.
    """
    g = x * (x - 1.0)
    e = 1.0 / g
    return g, e, (e < 0.0) & (e > UNDERFLOW_EXPONENT)


def _speed(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X(x), g = x(x-1) and the dead mask, ~live (see _exponent).

    exp runs on every point and the dead ones are then set to exactly 0.0,
    the value exp(-inf) would give them. Call under np.errstate.
    """
    g, e, live = _exponent(x)
    dead = ~live
    speed = np.exp(e)
    speed[dead] = 0.0
    return speed, g, dead


def _field_arrays(x: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
    """Evaluate X (order 0), X' (order 1), X'' (order 2) on an array.

    Points outside (0,1), and points whose exponent 1/(x(x-1)) underflows
    float64, evaluate to exactly 0.0 in every component. No domain check:
    the stepper may probe a hair outside [0,1] and must see a zero field
    rather than an overflow.

    Pointwise: every component is computed on the whole array, so each live
    point goes through the same operations whatever batch it sits in, and
    the dead points are then overwritten with 0.0, whatever inf or NaN
    they held. g = x(x-1) is negative exactly on (0,1); 1/g is -inf at 0
    and wherever g is subnormal, and +inf at 1, so `live` needs no
    separate domain test.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(**_QUIET):
        speed, g, dead = _speed(x)
        if order == 0:
            return (speed,)
        s = 2.0 * x - 1.0
        gg = g * g
        h = -s / gg
        d1 = h * speed
        d1[dead] = 0.0
        if order == 1:
            return (speed, d1)
        # gg * g, not g ** 3: the power is a libm pow call per point, most
        # of the cost of an order-2 kernel call
        d2 = -2.0 / gg + 2.0 * s ** 2 / (gg * g)
        d2 += h * h
        d2 *= speed
        d2[dead] = 0.0
    return (speed, d1, d2)


def _exponent_change(two_x, d, neg_gx, gy, out=None, den=None):
    """e(x + d) - e(x) for the exponent e = 1/g of X, given 2x, d,
    -g(x) and gy = g(x + d), written into out (and den) when given.

    As d ((2x + d) - 1) / (-g(x) g(x + d)) it has no cancellation and keeps
    the relative precision of d. That is -d (2x + d - 1) / (g(x) g(x + d))
    with the sign moved into the denominator, which rounding to nearest
    makes exact: the same bits.
    """
    out = np.add(two_x, d, out=out)
    out -= 1.0
    out *= d
    out /= np.multiply(neg_gx, gy, out=den)
    return out


class _FieldDifference:
    """X(a + d) - X(a) for fixed anchors a, accurate to full relative
    precision in d.

    Built from a, xa = X(a) and ga = g(a), which every caller already
    holds; it keeps what depends on a alone (2a, -g(a), whether X(a) > 0)
    and the scratch arrays of a call, so a solve that calls it at every
    stage reuses them. Direct subtraction loses all digits once d is
    small. Instead take the exponent change, which has no cancellation,
    and expand the outer exponential with expm1. Falls back to the plain
    difference, X(a + d) evaluated only at those points, whenever either
    point is outside the live region or the exponent change is large
    (where subtraction is safe). Call it under np.errstate.
    """

    def __init__(self, a: np.ndarray, xa: np.ndarray, ga: np.ndarray):
        self.a, self.xa = a, xa
        self.two_a = 2.0 * a
        self.neg_ga = -ga
        # xa > 0 puts a inside (0,1)
        self.a_live = xa > 0.0
        self._b, self._gb, self._de = (np.empty(a.shape) for _ in range(3))
        self._smooth, self._inside = (np.empty(a.shape, bool) for _ in range(2))

    def __call__(self, d: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write X(a + d) - X(a) into out and return it."""
        b = np.add(self.a, d, out=self._b)
        gb = np.subtract(b, 1.0, out=self._gb)
        gb *= b
        de = _exponent_change(self.two_a, d, self.neg_ga, gb, out=self._de,
                              den=out)
        # gb < 0 puts a + d inside (0,1)
        smooth = np.less_equal(np.abs(de, out=out), 0.5, out=self._smooth)
        smooth &= np.less(gb, 0.0, out=self._inside)
        smooth &= self.a_live
        np.expm1(de, out=out)
        out *= self.xa
        if not smooth.all():
            rough = np.flatnonzero(~smooth)
            xb, _, _ = _speed(b[rough])
            out[rough] = xb - self.xa[rough]
        return out


def _log_slope(x: np.ndarray, d: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi_t(x), the displacement d = phi_t(x) - x and log phi_t'(x), dead
    x masked.

    phi_t'(x) = X(phi_t x) / X(x), so the log slope is the exponent change
    e(x + d) - e(x), which keeps the relative precision of d, tiny as d is
    in the flat tails. Where X(x) underflows (and at the endpoints) the
    flow is the identity: d and the log slope are returned as 0, and
    phi_t(x) as x.
    """
    with np.errstate(**_QUIET):
        g, e, live = _exponent(x)
        del e
        d = np.where(live, d, 0.0)
        y = x + d
        gy = y * (y - 1.0)
        # the temporaries are overwritten in place, which keeps a block's
        # working set small
        two_x = 2.0 * x
        change = _exponent_change(two_x, d, np.negative(g, out=g), gy,
                                  out=two_x, den=gy)
        return y, d, np.where(live, change, 0.0)


def _cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The table cell holding each x in [0,1], and the offset theta in it.

    x * TABLE_CELLS and theta are exact; x = 1 sits at theta = 1 of the
    last cell.
    """
    s = x * TABLE_CELLS
    # np.maximum and np.minimum, not np.clip: its dispatch costs a
    # one-point lookup 2 us
    cell = np.minimum(np.maximum(np.floor(s), 0.0), TABLE_CELLS - 1.0)
    return cell.astype(np.intp), s - cell


def _lookup_block(table: np.ndarray, starts: np.ndarray, which, x
                  ) -> tuple[np.ndarray, np.ndarray]:
    """phi_t(x) and log phi_t'(x) for one block of points: point i reads
    the row starts[which[i]] + its cell. Shaped like x."""
    cell, theta = _cells(x)
    # np.take, not table[i]: on an 8 192-point block fancy indexing gathers
    # the rows about ten times as slowly
    row = np.take(table, np.take(starts, which) + cell, axis=0)
    # Horner in place: d0 + theta (m0 + theta (c2 + theta c3)), bitwise
    d = row[..., 3] * theta
    d += row[..., 2]
    d *= theta
    d += row[..., 1]
    d *= theta
    d += row[..., 0]
    # free the gathered rows before _log_slope, whose temporaries set a
    # block's peak memory
    del row, cell, theta
    y, _, log_slope = _log_slope(x, d)
    return y, log_slope


def lookup_blocks(size: int):
    """The slices of range(size) into blocks of at most _BLOCK points, in
    order: the blocks of a table lookup, for a caller that runs several
    lookups on the same points while a block stays in cache."""
    return (slice(lo, lo + _BLOCK) for lo in range(0, size, _BLOCK))


def _table_lookup(table: np.ndarray, starts: np.ndarray, which, x
                  ) -> tuple[np.ndarray, np.ndarray]:
    """_lookup_block over lookup_blocks, each written into its slice of
    the two outputs (the table route of the module docstring). Shaped
    like x; a batch of one block is one call.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size <= _BLOCK:
        return _lookup_block(table, starts, which, x)
    flat, which = x.ravel(), np.ravel(which)
    y, log_slope = np.empty(flat.size), np.empty(flat.size)
    for block in lookup_blocks(flat.size):
        y[block], log_slope[block] = _lookup_block(
            table, starts, which[block], flat[block])
    return y.reshape(x.shape), log_slope.reshape(x.shape)


def _check_flow_args(t: float, x: float) -> tuple[float, float]:
    """(t, x) as floats; DomainError unless t is in [-1, 1] and x in [0, 1]."""
    return (_checks.real(t, "flow time", -1.0, 1.0),
            _checks.real(x, "position", 0.0, 1.0))


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
    x = _checks.real(x, "field position", 0.0, 1.0)
    s, d1, d2 = _field_arrays(np.array([x]), 2)
    return FieldValue(x=x, speed=float(s[0]), d1=float(d1[0]), d2=float(d2[0]))


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

    table_flow is the table route of the module docstring. The ODE methods
    take numpy arrays for the position, broadcast the time against it and
    integrate the whole batch with one shared adaptive step sequence. A zero
    time needs no special case: its right-hand side is zero, so the solve
    takes one exact step and returns the identity bitwise. evolve and the
    scalar lookups share one variational solve (_solve); a scalar lookup is
    a batch of one at order 2, solved afresh on every call. The tables are
    the engine's only state: every call makes its own scratch, so threads
    may share an engine. A tolerance outside [1e-14, 1e-6] raises
    DomainError.
    """

    def __init__(self, tol: float = 1e-13):
        self.tol = _checks.real(tol, "tolerance", 1e-14, 1e-6)
        # displacement tables: row _table_rows[t] of _tables is time t; the
        # stack is allocated on the first build and grows geometrically
        self._table_lock = threading.Lock()
        self._table_rows: dict[float, int] = {}
        self._tables = np.empty((0, TABLE_CELLS + 1, 4))

    # ------------------------------------------------------------------
    # table route (the pull-back hot path)
    # ------------------------------------------------------------------

    def table_flow(self, times, which: np.ndarray, x: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """phi_t(x) and log phi_t'(x) with t = times[which], from the tables.

        times is a short sequence of flow times, which an integer array of
        indices into it (one per point, shaped like x) and x the positions
        in [0,1]; both results are shaped like x. A time's table is built
        the first time a point reads it; a listed time that no point reads
        gets none. The lookup is the table route of the module docstring.
        """
        rows = [self._table_rows.get(float(t)) for t in times]
        if None in rows:
            read = np.bincount(np.ravel(which), minlength=len(rows)) > 0
            rows = [self._table_row(float(t)) if r else 0
                    for t, r in zip(times, read)]
        starts = np.array(rows, dtype=np.intp) * (TABLE_CELLS + 1)
        # a view, as the stack is C-contiguous; a non-contiguous stack
        # would be copied whole on every lookup (6 tables, 8 192 points:
        # 2-3 ms against 21-34 us, 2-core Xeon VM)
        return _table_lookup(self._tables.reshape(-1, 4), starts, which, x)

    def table_point(self, t: float, x: float) -> tuple[float, float]:
        """phi_t(x) and log phi_t'(x) for one point x in [0,1], as floats.

        The point kernel of the table route: the same table as table_flow
        and the same formulas as its blocks (_cells, the Horner cubic,
        _exponent_change, and _log_slope's live test and dead values), in
        Python floats. They use only +, -, *, / and floor, which round
        alike in floats and numpy, so every result is bitwise table_flow's.
        """
        row = self._table_row(float(t))
        g = x * (x - 1.0)
        # _exponent's live test; g < 0 first, as 1/g raises at g = 0
        if not (g < 0.0 and 1.0 / g > UNDERFLOW_EXPONENT):
            # _log_slope's dead point: d = 0.0, and x + 0.0 maps -0.0 to 0.0
            return x + 0.0, 0.0
        cell, theta = _cells(x)
        theta = float(theta)
        # read after _table_row, which publishes a row after its table
        d0, m0, c2, c3 = self._tables[row, int(cell)].tolist()
        d = d0 + theta * (m0 + theta * (c2 + theta * c3))
        y = x + d
        return y, float(_exponent_change(2.0 * x, d, -g, y * (y - 1.0)))

    def _table_row(self, t: float) -> int:
        """The row of time t in _tables, building it on first use.

        The lock makes concurrent first uses share one build. A full stack
        is replaced by one of twice the rows (16 at first) holding the
        same tables; np.empty leaves the new rows untouched, so they cost
        no memory until a build writes them. A table is written before its
        row is published, so a reader that finds a row also finds it in
        the stack it reads next.
        """
        row = self._table_rows.get(t)
        if row is None:
            with self._table_lock:
                row = self._table_rows.get(t)
                if row is None:
                    table = self._build_table(t)
                    row = len(self._table_rows)
                    if row == len(self._tables):
                        grown = np.empty((max(16, 2 * row),) + table.shape)
                        grown[:row] = self._tables
                        self._tables = grown
                    self._tables[row] = table
                    self._table_rows[t] = row
        return row

    def _build_table(self, t: float) -> np.ndarray:
        """The Hermite table of delta_t, shape (TABLE_CELLS + 1, 4).

        Row i holds the knot (delta_t, h delta_t') at x_i = i h,
        h = 1/TABLE_CELLS, and the coefficients c2, c3 of the cubic on
        cell i, delta = d0 + theta (m0 + theta (c2 + theta c3)) with
        (d0, m0) and (d1, m1) the knots at its two ends; the last row, a
        knot with no cell, holds c2 = c3 = 0. delta comes from
        _displacement, and delta' = phi_t' - 1 from the closed-form log
        slope. The table is then read at every cell midpoint by the lookup
        kernel and must reproduce a second displacement solve there, in
        phi_t and in the log slope, to TABLE_CHECK, else SolverError.
        """
        table = np.zeros((TABLE_CELLS + 1, 4))
        x = np.arange(TABLE_CELLS + 1) / TABLE_CELLS
        # [1:]: phi_t at the knots is not kept through the second solve
        table[:, 0], log_slope = _log_slope(x, self._displacement(t, x))[1:]
        table[:, 1] = np.expm1(log_slope) / TABLE_CELLS
        (d0, m0), (d1, m1) = table[:-1, :2].T, table[1:, :2].T
        table[:-1, 2] = 3.0 * (d1 - d0) - 2.0 * m0 - m1
        table[:-1, 3] = 2.0 * (d0 - d1) + m0 + m1

        mid = (x[:-1] + x[1:]) / 2.0
        got = _table_lookup(table, np.zeros(1, np.intp),
                            np.zeros(mid.size, np.intp), mid)
        y, _, log_slope = _log_slope(mid, self._displacement(t, mid))
        miss = max(float(np.max(np.abs(g - w)))
                   for g, w in zip(got, (y, log_slope)))
        if not miss <= TABLE_CHECK:
            raise SolverError(
                f"flow table at t={t:g} misses its ODE by {miss:.3e} at a "
                f"cell midpoint (bound {TABLE_CHECK:.0e})")
        return table

    def _displacement(self, t: float, x: np.ndarray) -> np.ndarray:
        """delta_t(x) = phi_t(x) - x from its own ODE, one column per point.

        delta' = t (X(x) + (X(x + delta) - X(x))), the bracket evaluated by
        the cancellation-free _FieldDifference, so delta keeps its relative
        precision in the flat tails, where it is far below the spacing of
        floats around x. Where X(x) underflows, delta stays exactly 0. X(x),
        g(x) and the difference's other anchor data are made once per
        solve, and every right-hand side call writes into its scratch.
        """
        with np.errstate(**_QUIET):
            xa, ga, _ = _speed(x)
        difference = _FieldDifference(x, xa, ga)

        def rhs(state):
            out = np.empty_like(state)
            with np.errstate(**_QUIET):
                difference(state[0], out[0])
            out[0] += xa
            out *= t
            return out

        return integrate_unit_interval(rhs, np.zeros((1, x.size)),
                                       atol=self.tol)[0][0]

    def _derivatives(self, t: float, x: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """phi_t'(x) and phi_t''(x) from one displacement solve, in closed
        form.

        With y = phi_t(x), phi_t' = X(y)/X(x) = exp(e(y) - e(x)), the log
        slope of _log_slope. Differentiating again, with X'/X = e' and
        e'(u) = -(2u - 1)/g(u)^2,
        phi_t'' = phi_t' (e'(y) (phi_t' - 1) + (e'(y) - e'(x))),
        where phi_t' - 1 is expm1 of the log slope and, with a = 2x - 1,
        G = g(y) and d = y - x, e'(y) - e'(x) is
        d (a (a + d) (G + g) - 2 g^2) / (g^2 G^2). Neither has the
        cancellation of e'(y) phi_t' - e'(x), which loses digits in the
        flat tails, where phi_t' is near 1 and e' is large. Dead points
        read phi_t' = 1 and phi_t'' = 0.
        """
        y, d, log_slope = _log_slope(x, self._displacement(t, x))
        slope = np.exp(log_slope)
        with np.errstate(**_QUIET):
            g, _, live = _exponent(x)
            gy = y * (y - 1.0)
            a = 2.0 * x - 1.0
            gap = d * (a * (a + d) * (gy + g) - 2.0 * g * g)
            gap /= (g * g) * (gy * gy)
            curvature = np.expm1(log_slope) * (1.0 - 2.0 * y) / (gy * gy)
            curvature += gap
            curvature *= slope
        return slope, np.where(live, curvature, 0.0)

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
            Flow time(s), |t| <= 1, broadcast against x; else DomainError.
        x : ndarray
            Initial positions in [0,1]; else DomainError, as flow does.
        order : int
            0, 1 or 2 return (y,), (y, d1) or (y, d1, d2); else DomainError.
        """
        order = _checks.integer(order, "variational order", 0)
        if order > 2:
            raise DomainError(f"variational order must be <= 2, got {order}")
        x, flat_t = _flatten(x, t)
        _checks.reals(flat_t, "flow time", -1.0, 1.0)
        _checks.reals(x, "position", 0.0, 1.0)
        yf, _ = self._solve(flat_t, np.ravel(x), order)
        return tuple(row.reshape(x.shape) for row in yf)

    def evolve_interval(self, t, x_lo, width):
        """Flow an interval [x, x + w] forward, tracking w without cancellation.

        The width obeys w' = t (X(y + w) - X(y)), whose right hand side is
        evaluated by the cancellation-free difference, so the returned
        width retains full relative precision even when it is far below
        the spacing of representable floats around y. One kernel call per
        right-hand side gives X(y) and the difference, which shares g(y).

        Returns (y_lo, w_new).
        """
        x_lo, flat_t = _flatten(x_lo, t)
        width = np.asarray(width, dtype=np.float64)

        def rhs(state):
            out = np.empty_like(state)
            with np.errstate(**_QUIET):
                s, g, _ = _speed(state[0])
                _FieldDifference(state[0], s, g)(state[1], out[1])
            np.multiply(flat_t, s, out=out[0])
            out[1] *= flat_t
            return out

        y0 = np.stack([np.ravel(x_lo), np.ravel(width)])
        yf, _, _ = integrate_unit_interval(rhs, y0, atol=self.tol)
        y_lo = np.clip(yf[0], 0.0, 1.0).reshape(x_lo.shape)
        return y_lo, yf[1].reshape(x_lo.shape)

    # ------------------------------------------------------------------
    # scalar interface
    # ------------------------------------------------------------------

    def flow(self, t: float, x: float) -> FlowSample:
        """phi_t(x), both variations and the error proxy: one uncached solve."""
        t, x = _check_flow_args(t, x)
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
    # certification
    # ------------------------------------------------------------------

    def certify(self, grid_n: int = 4096) -> FlowConstants:
        """Compute and verify the constants T, M, B1.

        B1 maximizes |X'| over a uniform grid, refined by one lockstep
        golden-section search around the two interior critical points of
        X' (symmetric about 1/2). T = min(1, ln(3/2)/B1) then guarantees
        exp(T B1) <= 3/2, and the slope bound phi_t' >= 2/3 is verified
        pointwise on the grid for dyadic |t| <= T. M is 1.05 times the grid
        supremum of |phi_t''| over t in {+-1, +-1/2, +-1/4, +-1/8}.

        Each distinct flow time costs one displacement solve on the grid,
        from which phi_t' and phi_t'' follow in closed form (_derivatives);
        the slope check and M read them. With T = 1 the eight curvature
        times are also slope times, so certification makes ten solves in
        all, and no variational solve.

        Raises CertificationError if the 2/3 bound fails anywhere.
        """
        grid_n = _checks.integer(grid_n, "certification grid", 1024)
        grid = np.linspace(0.0, 1.0, grid_n + 1)

        (_, d1) = _field_arrays(grid, 1)
        absd1 = np.abs(d1)
        i = int(np.argmax(absd1))
        dx = 1.0 / grid_n
        b1 = float(absd1[i])
        centers = np.array([grid[i], 1.0 - grid[i]])
        _, peaks = golden_max(lambda z: np.abs(_field_arrays(z, 1)[1]),
                              np.maximum(0.0, centers - 2 * dx),
                              np.minimum(1.0, centers + 2 * dx),
                              _B1_GOLDEN_STEPS)
        b1 = max(b1, float(peaks.max()))

        T = min(1.0, math.log(1.5) / b1)

        slope_times = [sgn * T / 2 ** j for j in range(5) for sgn in (1.0, -1.0)]
        curvature_times = [sgn * tv for tv in (1.0, 0.5, 0.25, 0.125)
                           for sgn in (1.0, -1.0)]
        derivatives = {t: self._derivatives(t, grid)
                       for t in dict.fromkeys(slope_times + curvature_times)}

        for t in slope_times:
            vmin = float(derivatives[t][0].min())
            if vmin < 2.0 / 3.0:
                raise CertificationError(
                    f"slope bound failed: phi'_{t:g} min {vmin} < 2/3")

        M = 1.05 * max(float(np.max(np.abs(derivatives[t][1])))
                       for t in curvature_times)

        return FlowConstants(T=T, M=M, B1=b1, tol=self.tol, grid_n=grid_n)
