"""The two-branch expanding map built from the flow.

The left branch piece [0, 1/3] is tiled by windows J_n = [2/3^(n+1), 1/3^n]
accumulating at 0. On J_n (n >= 1) the map conjugates the flow at a dyadic
time t_n into the window, F = B_n o phi_{t_n} o A_n, where A_n and B_n are
the affine charts; on the gaps between windows F is plain 3x, and on the
right piece [2/3, 1] it is 3x - 2. The time schedule gives every n of the
block 2^k <= n < 2^(k+1) one time, TimeSchedule.block_time(k). The
paper's law, (-1/2)^k T, makes consecutive blocks cancel: under it every
cumulative time stays inside [0, T] while a full block of times piles up
to +-T. That tension (cumulative times bounded, block sums not vanishing)
is what the distortion analyzers downstream quantify.

Everything here consumes and produces ScaledPoint / PointBatch coordinates;
raw float evaluation lives in the cross-check module flowcutter.oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _checks
from .errors import DomainError, EscapeError
from .flow import FlowConstants, FlowEngine
from .scaled import (Locus, PointBatch, ScaledPoint, _indices, _pow3,
                     _raw_into)

LN3 = math.log(3.0)
# The raw steps of the junction check, 1e-2 down to 1e-9, each the one
# before divided by 10.0 (from 1e-6 on, 1e-2 / 10.0 ** j rounds 1 ulp away)
_C1_STEPS = tuple(itertools.accumulate(range(7), lambda h, _: h / 10.0,
                                       initial=1e-2))


# ----------------------------------------------------------------------
# windows
# ----------------------------------------------------------------------

def interval_J(n: int) -> tuple[ScaledPoint, ScaledPoint]:
    """Endpoints of the window J_n = [2/3^(n+1), 1/3^n], exactly scaled;
    DomainError unless n is an integer >= 0."""
    n = _checks.integer(n, "window index", 0)
    return ScaledPoint.in_window(n, 0.0), ScaledPoint.in_window(n, 1.0)


# ----------------------------------------------------------------------
# the dyadic time schedule
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TimeSchedule:
    """Flow times t_n = block_time(k) for 2^k <= n < 2^(k+1), n >= 1.

    block_time is the one statement of the law, here the paper's
    (-1/2)^k T; every other time, sum and table list derives from it.
    The exponent k = floor(log2 n) is always taken from integer bit
    arithmetic (bit_length, or exact frexp on the vectorized path);
    floating log2 is off by one at powers of two.
    """

    T: float

    def block_time(self, k: int) -> float:
        """The flow time of every n in block k: (-1/2)^k T. k is not
        checked: this one statement of the law is read on every step."""
        return (-0.5) ** k * self.T

    def flow_time(self, n: int) -> float:
        """t_n; DomainError unless n is an integer >= 1."""
        n = _checks.integer(n, "schedule index", 1)
        return self.block_time(n.bit_length() - 1)

    @staticmethod
    def blocks(n: np.ndarray) -> np.ndarray:
        """The block index k = floor(log2 n) of each schedule index n.

        Every n must be an integer in [1, 2^53), which is not checked: this
        is on the path of every table lookup. n = 0 gives k = -1, which
        block_flow would read as its last listed table, and an n >= 2^53
        may round up to the next power of two and read the next block.
        """
        # frexp is exact for integers below 2^53: n = m * 2^e with m in
        # [0.5, 1). The ufunc casts the integers to floats chunk by chunk in
        # its buffer, a third of the time of a cast array on 2^20 points.
        _, e = np.frexp(n)
        e -= 1
        return e

    def flow_times(self, n: np.ndarray) -> np.ndarray:
        """flow_time(n) for each n of an array, bitwise; DomainError unless
        the array has an integer dtype (bool is not one) and every n is in
        [1, 2^53), the range where blocks is exact."""
        n = np.asarray(n)
        if n.dtype.kind not in "iu":
            raise DomainError(
                f"schedule indices must have an integer dtype, got {n.dtype}")
        if n.size and n.min() < 1:
            raise DomainError(
                f"schedule index must be >= 1, got {int(n.min())}")
        if n.size and n.max() >= 1 << 53:
            raise DomainError(
                f"schedule index must be < 2^53, got {int(n.max())}")
        k = self.blocks(n)
        return np.array([self.block_time(j)
                         for j in range(int(k.max(initial=-1)) + 1)])[k]

    def cumulative_time(self, n: int) -> float:
        """t_1 + ... + t_n: the block sums before n's block, plus the
        n - 2^k + 1 times of its own block k.

        For this law the complete blocks alternate between +T and -T and
        cancel in pairs, so the sum lands in [0, T].
        """
        n = _checks.integer(n, "schedule index", 1)
        k = n.bit_length() - 1
        lead = sum(self.block_sum(j) for j in range(k))
        return lead + (n - (1 << k) + 1) * self.block_time(k)

    def block_sum(self, k: int) -> float:
        """Sum of t_n over the full block 2^k <= n < 2^(k+1), 2^k times
        block_time(k); for this law exactly (-1)^k T. DomainError unless k
        is an integer >= 0."""
        k = _checks.integer(k, "block index", 0)
        return (1 << k) * self.block_time(k)


# ----------------------------------------------------------------------
# the map
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IterateResult:
    """Endpoint of an orbit segment plus its accumulated log-slope.

    The log-slope is kept as steps * ln 3 plus the sum of the flow
    multiplier logs, so orbits through affine branches report exactly
    steps * ln 3 with log_extra == 0.0.
    """

    point: ScaledPoint
    steps: int
    log_extra: float

    @property
    def log_slope(self) -> float:
        return self.steps * LN3 + self.log_extra

    @property
    def slope(self) -> float:
        return math.exp(self.log_slope)


class CookieMap:
    """F on [0, 1/3] u [2/3, 1], its slope, and precision-safe iteration."""

    def __init__(self, constants: FlowConstants, engine: FlowEngine | None = None):
        self.constants = constants
        self.engine = engine if engine is not None else FlowEngine(tol=constants.tol)
        self.schedule = TimeSchedule(constants.T)

    @staticmethod
    def certified(grid_n: int = 4096, tol: float = 1e-13) -> "CookieMap":
        # checked before the cache, which 4096.0 would hit as 4096
        return _certified_map(
            _checks.integer(grid_n, "certification grid", 1024),
            _checks.real(tol, "tolerance", 1e-14, 1e-6))

    @staticmethod
    def calibration() -> "CookieMap":
        """Degenerate T = 0 map: the flow is the identity, every branch is
        an exact multiple of 3, and the repeller is the middle-thirds set.
        Used to calibrate the dimension machinery against log 2 / log 3."""
        return CookieMap(FlowConstants(T=0.0, M=0.0, B1=0.0, tol=1e-13, grid_n=0))

    # -- scalar operations ------------------------------------------------

    def apply(self, p: ScaledPoint) -> ScaledPoint:
        """One step of F in scaled coordinates."""
        return self._step(p)[0]

    def derivative(self, p: ScaledPoint) -> float:
        """F'(p): exactly 3 off the deep windows, 3 phi_{t_n}'(u) on them,
        read from the forward table as in iterate."""
        return 3.0 * math.exp(self._step(p)[1])

    def _step(self, p: ScaledPoint) -> tuple[ScaledPoint, float]:
        """F(p) and log F'(p) - ln 3, the one forward step.

        A window J_n (n >= 1) reads phi_{t_n} and its log slope from the
        forward table of its time t_n through the point kernel
        (FlowEngine.table_point); every other branch is affine, with
        increment exactly 0.0.
        """
        if p.locus is Locus.HOLE:
            raise DomainError("point in the central hole is outside the domain of F")
        if p.locus is Locus.ZERO:
            return p, 0.0
        if p.locus is Locus.GAP:
            if p.n == 1:
                return ScaledPoint(Locus.HOLE, 0, p.u), 0.0
            return ScaledPoint(Locus.GAP, p.n - 1, p.u), 0.0
        if p.n == 0:
            return ScaledPoint.from_raw(p.u), 0.0
        y, log_slope = self.engine.table_point(
            self.schedule.flow_time(p.n), p.u)
        return ScaledPoint.in_window(p.n - 1, y), log_slope

    def iterate(self, p: ScaledPoint, k: int) -> IterateResult:
        """F^k(p) and log (F^k)'(p), accumulated in log space.

        Each step is the forward step of apply and derivative, whose
        window branch reads the forward table in Python floats
        (FlowEngine.table_point): no ODE solve once it exists, and no
        one-point array lookup. k is an integer >= 0, else DomainError.

        Raises EscapeError at the first j < k for which F^j(p) is in the
        hole, outside the domain; the final point may land anywhere. The
        escape is strict: an interval endpoint, whose orbit rides on the
        branch junctions, may stray a few 1e-14 into the hole and escape.
        """
        k = _checks.integer(k, "iteration count", 0)
        extra = 0.0
        q = p
        for j in range(k):
            if q.locus is Locus.HOLE:
                raise EscapeError(j)
            q, increment = self._step(q)
            extra += increment
        return IterateResult(point=q, steps=k, log_extra=extra)

    # -- vectorized operations --------------------------------------------

    def inverse_point(self, symbol, p: ScaledPoint
                      ) -> tuple[ScaledPoint, float]:
        """The preimage of p under the branch symbol (0 or 1), and
        log F' - ln 3 at it: inverse_batch's branch rules for one point.

        The 1-branch is affine, its preimage the raw value. The 0-branch
        maps a hole point into the gap below J_1, moves a gap point one gap
        down, leaves 0 fixed, and flows a window point of J_n into J_(n+1)
        at t = -t_(n+1) through the point kernel (FlowEngine.table_point);
        the negated log slope is the increment. Bitwise inverse_batch's
        point.
        """
        if _checks.symbol(symbol) == 1:
            return ScaledPoint(Locus.INJ, 0, p.raw), 0.0
        if p.locus is Locus.HOLE:
            return ScaledPoint(Locus.GAP, 1, p.u), 0.0
        if p.locus is Locus.GAP:
            return ScaledPoint(Locus.GAP, p.n + 1, p.u), 0.0
        if p.locus is Locus.ZERO:
            return p, 0.0
        y, log_slope = self.engine.table_point(
            -self.schedule.flow_time(p.n + 1), p.u)
        return ScaledPoint(Locus.INJ, p.n + 1, y), -log_slope

    def inverse_batch(self, symbol, b: PointBatch, *,
                      out: tuple[PointBatch, np.ndarray] | None = None
                      ) -> tuple[PointBatch, np.ndarray]:
        """Inverse branch symbol (0 or 1) on a batch; returns (preimage,
        log F' - ln 3), written into out if it is given, else into new
        arrays. Any other symbol, an array of them included, raises
        DomainError. out is a (PointBatch, increments) pair whose every
        array has b's shape, else DomainError, and b's dtypes.

        The reported log increment is the slope of F at the *preimage*,
        obtained for free from the backward flow's log slope, since
        phi_t'(phi_{-t}(u)) * phi_{-t}'(u) = 1. The 1-branch is affine:
        its preimages are the raw values (PointBatch.raw). The 0-branch
        flows every point by one block_flow call, as if it sat in a
        window, then repairs the few that do not by index: a hole point
        moves into the gap below J_1, a gap point one gap down, 0 stays,
        each with increment 0.0. A repaired point reads the table of a
        window point of b, so its wasted lookup builds no table; a batch
        with no window point makes no lookup. Each preimage and increment
        is a pure function of its own point and the symbol: the results
        are bitwise the same whatever batch, group or thread computes
        them, and bitwise inverse_point's.
        """
        symbol = _checks.symbol(symbol)
        if out is None:
            out = (PointBatch(*map(np.empty_like, (b.locus, b.n, b.u))),
                   np.empty(b.u.shape))
        pre, extra = out
        shapes = {a.shape for a in (pre.locus, pre.n, pre.u, extra)}
        if shapes != {b.u.shape}:
            raise DomainError(f"out has arrays of shapes {sorted(shapes)}, "
                              f"the batch {b.u.shape}")
        if symbol == 1:
            pre.locus.fill(int(Locus.INJ))
            pre.n.fill(0)
            _raw_into(b, pre.u)
            extra.fill(0.0)
            return out
        np.add(b.n, 1, out=pre.n)
        pre.locus[...] = b.locus
        window = b.locus == int(Locus.INJ)
        off = _indices(~window)
        if off[0].size < b.size:
            k = self.schedule.blocks(pre.n)
            if off[0].size:
                k[off] = k.flat[np.argmax(window)]
            y, log_slope = self.block_flow(k, b.u)
            pre.u[...] = y
            np.negative(log_slope, out=extra)
        if off[0].size:
            locus, n = b.locus[off], b.n[off]
            hole = locus == int(Locus.HOLE)
            pre.locus[off] = np.where(hole, int(Locus.GAP), locus)
            pre.n[off] = np.where(hole, 1, np.where(locus == int(Locus.GAP),
                                                    n + 1, n))
            pre.u[off] = b.u[off]
            extra[off] = 0.0
        return out

    def block_flow(self, k: np.ndarray, u: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """phi_t(u) and log phi_t'(u) with t = -block_time(k), the flow of
        the 0-branch pull-back from J_n into J_(n+1), k = blocks(n + 1).

        The values come from the engine's displacement tables
        (FlowEngine.table_flow), one per block index, so each is a pure
        function of its own (k, u). k must be nonempty with every k >= 0,
        as TimeSchedule.blocks gives for n >= 1; this is not checked, and
        k = -1 would read the last listed table.
        """
        times = [-self.schedule.block_time(j)
                 for j in range(int(k.max()) + 1)]
        return self.engine.table_flow(times, k, u)

    # -- boundary smoothness ----------------------------------------------

    def check_c1_boundary(self, n: int) -> "C1BoundaryReport":
        """One-sided difference quotients of F at the branch junctions.

        Probes 1/3^n (left side, through the window) and 2/3^(n+1) (right
        side, through the window) over the raw steps _C1_STEPS, 1e-2 down
        to 1e-9, plus the right-sided quotient at 0 stepped through window
        midpoints. Gap-side quotients are exactly 3 (the branch is
        literally 3x there) and are reported as such. Every quotient is
        evaluated in scaled coordinates, so steps far below the raw float
        resolution of a window are still meaningful.

        The batch of one of check_c1_boundaries: three positions-only ODE
        solves (FlowEngine.evolve at order 0), one per family. The tables
        are not read, so this is a cross-route check.
        """
        return self.check_c1_boundaries([n])[0]

    def check_c1_boundaries(self, ns) -> list["C1BoundaryReport"]:
        """check_c1_boundary(n) for each n in ns, in order.

        The flowed points form three families, each one positions-only
        solve: the seam points of J_n, one solve per n, and two families
        that do not depend on n, solved once for all of ns: the window
        points right of 0 at the raw steps and the window midpoints. Each
        solve is the batch check_c1_boundary(n) makes, so every report is
        bitwise the same as the per-n call. Every n is an integer in
        [0, 17], else DomainError: from J_18 on even the smallest step
        overshoots the window.
        """
        ns = [_checks.integer(n, "window index", 0) for n in ns]
        if not ns:
            return []
        # the seam steps in chart units, du = h 3^(n+1); the rows of J_n
        # keep du <= 1, so a window no step fits in would check nothing
        steps = np.array(_C1_STEPS)
        dus = [steps * _pow3(n + 1) for n in ns]
        for n, du in zip(ns, dus):
            if n >= 1 and du[-1] > 1.0:
                raise DomainError(
                    f"window {n} is too deep for the junction check: even "
                    f"its smallest step {_C1_STEPS[-1]:g} overshoots it")

        # right of 0 at the raw step h: every h is below 1/3, so its probe
        # is a gap point, where F = 3x, or a window point of J_m, m >= 1
        probes = PointBatch.from_raw(steps)
        window = probes.locus == int(Locus.INJ)
        u0 = probes.u[window]
        y = self.engine.evolve(self.schedule.flow_times(probes.n[window]),
                               u0, order=0)[0]
        zero = np.full(steps.size, 3.0)
        zero[window] = 3.0 * (y + 2.0) / (u0 + 2.0)

        # window-midpoint family at 0: h = midpoint of J_m, m doubling;
        # convergence here is paced by t_m ~ T / m, the slow direction
        m = 1 << np.arange(14, dtype=np.int64)
        y = self.engine.evolve(self.schedule.flow_times(m),
                               np.full(m.shape, 0.5), order=0)[0]
        midpoints = [C1Quotient("0", "right-midpoints", float(mi), q)
                     for mi, q in zip(m.tolist(),
                                      (3.0 * (y + 2.0) / 2.5).tolist())]
        return [C1BoundaryReport(n=n, rows=self._c1_rows(n, du, zero),
                                 midpoint_rows=list(midpoints))
                for n, du in zip(ns, dus)]

    def _c1_rows(self, n: int, du: np.ndarray, zero: np.ndarray
                 ) -> list["C1Quotient"]:
        """The rows of window n, given its seam steps du and the quotients
        right of 0: step by step, one row per family in the order listed,
        where each family holds one quotient a step, NaN for no row."""
        if n == 0:
            # J_0 = [2/3, 1]: the branch is affine, quotients are exact
            three = np.full(du.size, 3.0)
            families = {("1", "left"): three, ("2/3", "right"): three}
        else:
            # seam points of J_n: x - h at u = 1 - du, x + h at u = du
            fit = du <= 1.0
            seam = du[fit]
            y = self.engine.evolve(self.schedule.flow_time(n),
                                   np.concatenate([1.0 - seam, seam]),
                                   order=0)[0]
            left, right, hole = np.full((3, du.size), np.nan)
            left[fit] = 3.0 * (1.0 - y[:seam.size]) / seam
            right[fit] = 3.0 * y[seam.size:] / seam
            # off the window a seam step lands in a gap, where F = 3x; right
            # of 1/3 (n = 1) is the hole, outside the domain: no rows
            gap = np.where(du < 1.0, 3.0, np.nan)
            families = {(f"1/3^{n}", "left"): left,
                        (f"1/3^{n}", "right"): gap if n >= 2 else hole,
                        (f"2/3^{n + 1}", "right"): right,
                        (f"2/3^{n + 1}", "left"): gap}
        families["0", "right"] = zero
        columns = np.array(list(families.values())).T.tolist()
        return [C1Quotient(location, side, h, q)
                for h, column in zip(_C1_STEPS, columns)
                for (location, side), q in zip(families, column)
                if not math.isnan(q)]


@dataclass(frozen=True)
class C1Quotient:
    location: str
    side: str
    step: float       # raw step size, or the window index for midpoint rows
    quotient: float

    @property
    def residual(self) -> float:
        return abs(self.quotient - 3.0)


@dataclass(frozen=True)
class C1BoundaryReport:
    n: int
    rows: list[C1Quotient]
    midpoint_rows: list[C1Quotient]

    def final_residuals(self) -> dict[tuple[str, str], float]:
        """Residual |quotient - 3| at the smallest step per location/side."""
        best: dict[tuple[str, str], C1Quotient] = {}
        for r in self.rows:
            key = (r.location, r.side)
            if key not in best or r.step < best[key].step:
                best[key] = r
        return {k: v.residual for k, v in best.items()}

    @property
    def max_final_residual(self) -> float:
        vals = self.final_residuals().values()
        return max(vals) if vals else 0.0

    @property
    def midpoint_final_residual(self) -> float:
        return self.midpoint_rows[-1].residual if self.midpoint_rows else 0.0


@lru_cache(maxsize=8)
def _certified_map(grid_n: int, tol: float) -> CookieMap:
    engine = FlowEngine(tol=tol)
    return CookieMap(engine.certify(grid_n=grid_n), engine)
