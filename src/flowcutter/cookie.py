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
raw float evaluation exists only as a cross-check (apply_raw).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, EscapeError
from .flow import FlowConstants, FlowEngine
from .scaled import Locus, PointBatch, ScaledPoint, _pow3

LN3 = math.log(3.0)


# ----------------------------------------------------------------------
# affine charts and windows
# ----------------------------------------------------------------------

def interval_J(n: int) -> tuple[ScaledPoint, ScaledPoint]:
    """Endpoints of the window J_n = [2/3^(n+1), 1/3^n], exactly scaled."""
    if n < 0:
        raise DomainError(f"window index must be >= 0, got {n}")
    return ScaledPoint.in_window(n, 0.0), ScaledPoint.in_window(n, 1.0)


def affine_A(n: int, x: float) -> float:
    """Chart A_n(x) = 3^(n+1) x - 2, mapping J_n onto [0,1]."""
    if n < 0:
        raise DomainError(f"chart index must be >= 0, got {n}")
    u = _pow3(n + 1) * x - 2.0
    if not -1e-9 <= u <= 1.0 + 1e-9:
        raise DomainError(f"{x!r} is not in J_{n}")
    return min(max(u, 0.0), 1.0)


def affine_B(n: int, u: float) -> float:
    """Chart B_n(u) = (u + 2) / 3^n, mapping [0,1] onto J_{n-1}."""
    if n < 0:
        raise DomainError(f"chart index must be >= 0, got {n}")
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"unit coordinate {u!r} outside [0,1]")
    return (u + 2.0) / _pow3(n)


# ----------------------------------------------------------------------
# the dyadic time schedule
# ----------------------------------------------------------------------

def _schedule_index(n) -> int:
    """n as a Python int, numpy integers included; DomainError unless n is
    an integer >= 1."""
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"schedule index must be an integer, got {n!r}"
                          ) from None
    if n < 1:
        raise DomainError(f"schedule index must be >= 1, got {n}")
    return n


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
        """The flow time of every n in block k: (-1/2)^k T."""
        return (-0.5) ** k * self.T

    def flow_time(self, n: int) -> float:
        return self.block_time(_schedule_index(n).bit_length() - 1)

    @staticmethod
    def blocks(n: np.ndarray) -> np.ndarray:
        """The block index k = floor(log2 n) of each schedule index n.

        Every n must be an integer in [1, 2^53), which is not checked: this
        is on the path of every table lookup. n = 0 gives k = -1, which
        block_flow would read as its last listed table, and an n >= 2^53
        may round up to the next power of two and read the next block.
        """
        # frexp is exact for integers below 2^53: n = m * 2^e with m in [0.5,1)
        _, e = np.frexp(np.asarray(n).astype(np.float64))
        return e - 1

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
        n = _schedule_index(n)
        k = n.bit_length() - 1
        lead = sum(self.block_sum(j) for j in range(k))
        return lead + (n - (1 << k) + 1) * self.block_time(k)

    def block_sum(self, k: int) -> float:
        """Sum of t_n over the full block 2^k <= n < 2^(k+1), 2^k times
        block_time(k); for this law exactly (-1)^k T."""
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
        return _certified_map(grid_n, tol)

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
        forward table of its block (block_flow); every other branch is
        affine, with increment exactly 0.0.
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
        y, log_slope = self.block_flow(
            1.0, self.schedule.blocks(np.array([p.n])), np.array([p.u]))
        return ScaledPoint.in_window(p.n - 1, float(y[0])), float(log_slope[0])

    def iterate(self, p: ScaledPoint, k: int,
                hole_slack: float = 0.0) -> IterateResult:
        """F^k(p) and log (F^k)'(p), accumulated in log space.

        Each step is the forward step of apply and derivative, whose
        window branch reads the forward table of its block (block_flow): no
        ODE solve once it exists.

        Raises EscapeError at the first j < k for which F^j(p) leaves the
        domain (enters the hole); the final point may land anywhere.

        Boundary orbits (interval endpoints) ride exactly on the branch
        junctions, and forward iteration amplifies roundoff, so they can
        stray a few 1e-14 into the hole. hole_slack > 0 snaps such
        near-boundary strays back onto the adjacent window endpoint
        instead of escaping; the default keeps strict escape semantics.
        """
        if k < 0:
            raise DomainError(f"iteration count must be >= 0, got {k}")
        extra = 0.0
        q = p
        for j in range(k):
            if q.locus is Locus.HOLE:
                if hole_slack > 0.0 and q.u <= 1.0 / 3.0 + hole_slack:
                    q = ScaledPoint.in_window(1, 1.0)
                elif hole_slack > 0.0 and q.u >= 2.0 / 3.0 - hole_slack:
                    q = ScaledPoint.in_window(0, 0.0)
                else:
                    raise EscapeError(j)
            q, increment = self._step(q)
            extra += increment
        return IterateResult(point=q, steps=k, log_extra=extra)

    def apply_raw(self, x: float) -> float:
        """F(x) straight from the raw-branch formulas (cross-check only)."""
        p = ScaledPoint.from_raw(x)
        if p.locus is Locus.HOLE:
            raise DomainError("point in the central hole is outside the domain of F")
        if p.locus is Locus.INJ and p.n >= 1:
            u = affine_A(p.n, x)
            y = self.engine.flow_position(self.schedule.flow_time(p.n), u)
            return affine_B(p.n, y)
        if p.locus is Locus.INJ:
            return 3.0 * x - 2.0
        return 3.0 * x

    # -- vectorized operations --------------------------------------------

    def inverse_batch(self, symbol, b: PointBatch) -> tuple[PointBatch, np.ndarray]:
        """Inverse branches on a batch; returns (preimage, log F' - ln 3).

        symbol is 0 or 1 for the whole batch, or an int8 array of one symbol
        per point, where -1 is padding that leaves its point unchanged (with
        increment 0.0); any other symbol raises DomainError. The reported
        log increment is the slope of F at the *preimage*, obtained for free
        from the backward flow's log slope, since
        phi_t'(phi_{-t}(u)) * phi_{-t}'(u) = 1. The 1-branch is affine: its
        preimages are the raw values. The 0-branch window points flow, in
        one block_flow call, through the engine's displacement tables
        (FlowEngine.table_flow), so each preimage and increment is a pure
        function of its own point and symbol: the results are bitwise the
        same whatever batch, shard or thread computes them.
        """
        if np.ndim(symbol) == 0:
            if symbol == 1:
                return PointBatch(
                    np.full(b.u.shape, int(Locus.INJ), dtype=np.int8),
                    np.zeros(b.u.shape, dtype=np.int32),
                    b.raw(),
                ), np.zeros(b.u.shape)
            if symbol != 0:
                raise DomainError(
                    f"branch symbol must be 0 or 1, got {symbol!r}")
            zero, one = True, None
        else:
            symbol = np.asarray(symbol)
            if symbol.dtype.kind not in "iu" or np.any((symbol < -1)
                                                       | (symbol > 1)):
                raise DomainError(f"branch symbols must be -1, 0 or 1, "
                                  f"got {symbol!r}")
            zero, one = symbol == 0, symbol == 1
        locus = b.locus.copy()
        n = b.n.copy()
        u = b.u.copy()
        extra = np.zeros(b.u.shape)

        hole = zero & (b.locus == int(Locus.HOLE))
        locus[hole] = int(Locus.GAP)
        n[hole] = 1
        n += zero & (b.locus == int(Locus.GAP))
        inj = zero & (b.locus == int(Locus.INJ))
        if inj.any():
            y, log_slope = self.block_flow(
                -1.0, self.schedule.blocks(b.n[inj] + 1), b.u[inj])
            u[inj] = y
            n[inj] += 1
            extra[inj] = -log_slope

        if one is not None and one.any():
            u[one] = PointBatch(b.locus[one], b.n[one], b.u[one]).raw()
            locus[one] = int(Locus.INJ)
            n[one] = 0
        return PointBatch(locus, n, u), extra

    def block_flow(self, direction: float, k: np.ndarray, u: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """phi_t(u) and log phi_t'(u) with t = direction block_time(k),
        from the tables.

        direction +1 is the flow half of F on a window J_n, whose block
        index is k = TimeSchedule.blocks(n); direction -1 that of the
        0-branch pull-back from J_n into J_(n+1), k = blocks(n + 1). The
        values come from the engine's displacement tables
        (FlowEngine.table_flow), one per direction and block index, so each
        is a pure function of its own (k, u). k must be nonempty with every
        k >= 0, as TimeSchedule.blocks gives for n >= 1; this is not
        checked, and k = -1 would read the last listed table.
        """
        times = [direction * self.schedule.block_time(j)
                 for j in range(int(k.max()) + 1)]
        return self.engine.table_flow(times, k, u)

    # -- boundary smoothness ----------------------------------------------

    def check_c1_boundary(self, n: int, h_min: float = 1e-9) -> "C1BoundaryReport":
        """One-sided difference quotients of F at the branch junctions.

        Probes 1/3^n (left side, through the window) and 2/3^(n+1) (right
        side, through the window) over a decreasing sequence of raw steps
        down to h_min, plus the right-sided quotient at 0 stepped through
        window midpoints. Gap-side quotients are exactly 3 (the branch is
        literally 3x there) and are reported as such. Every quotient is
        evaluated in scaled coordinates, so steps far below the raw float
        resolution of a window are still meaningful.

        The batch of one of check_c1_boundaries: three positions-only ODE
        solves (FlowEngine.evolve at order 0), one per family. The tables
        are not read, so this is a cross-route check.
        """
        return self.check_c1_boundaries([n], h_min)[0]

    def check_c1_boundaries(self, ns, h_min: float = 1e-9
                            ) -> list["C1BoundaryReport"]:
        """check_c1_boundary(n, h_min) for each n in ns, in order.

        The flowed points form three families, each one positions-only
        solve: the seam points of J_n, one solve per n, and two families
        that do not depend on n, solved once for all of ns: the window
        points right of 0 at the raw steps and the window midpoints. Each
        solve is the batch check_c1_boundary(n) makes, so every report is
        bitwise the same as the per-n call.
        """
        ns = list(ns)
        if any(n < 0 for n in ns):
            raise DomainError(f"window index must be >= 0, got {min(ns)}")
        if not 0.0 < h_min <= 1e-2:
            raise DomainError(f"h_min must lie in (0, 1e-2], got {h_min}")
        steps = []
        h = 1e-2
        while h >= h_min * (1.0 - 1e-12):
            steps.append(h)
            h /= 10.0
        # the seam steps in chart units, du = h 3^(n+1); the rows of J_n
        # keep du <= 1, so a window no step fits in would check nothing
        dus = [np.array(steps) * _pow3(n + 1) for n in ns]
        for n, du in zip(ns, dus):
            if n >= 1 and du[-1] > 1.0:
                raise DomainError(
                    f"no step down to h_min = {h_min} fits in window {n}")

        # right of 0 at the raw step h: a gap, or a window point to flow
        batch = PointBatch.from_raw(np.array(steps))
        probes = [batch.point(i) for i in range(batch.size)]
        deep = [p for p in probes if p.locus is Locus.INJ and p.n >= 1]
        u0 = np.array([p.u for p in deep])
        y = self.engine.evolve(self.schedule.flow_times(
            np.array([p.n for p in deep], dtype=np.int64)), u0, order=0)[0]
        zero_quotients = (3.0 * (y + 2.0) / (u0 + 2.0)).tolist()

        # window-midpoint family at 0: h = midpoint of J_m, m doubling;
        # convergence here is paced by t_m ~ T / m, the slow direction
        m = 1 << np.arange(14, dtype=np.int64)
        y = self.engine.evolve(self.schedule.flow_times(m),
                               np.full(m.shape, 0.5), order=0)[0]
        midpoints = list(zip(m.tolist(), (3.0 * (y + 2.0) / 2.5).tolist()))
        return [self._c1_report(n, steps, du, probes, zero_quotients,
                                midpoints) for n, du in zip(ns, dus)]

    def _c1_report(self, n, steps, du, probes, zero_quotients, midpoints
                   ) -> "C1BoundaryReport":
        """The report for window n, given its seam steps du and the n-free
        quotients."""
        # seam points of J_n: x - h at u = 1 - du, x + h at u = du
        if n >= 1:
            seam = du[du <= 1.0]
            y = self.engine.evolve(self.schedule.flow_time(n),
                                   np.concatenate([1.0 - seam, seam]),
                                   order=0)[0]
            left = iter((3.0 * (1.0 - y[:seam.size]) / seam).tolist())
            right = iter((3.0 * y[seam.size:] / seam).tolist())

        zero = iter(zero_quotients)
        rows: list[C1Quotient] = []
        for h, d, p in zip(steps, du.tolist(), probes):
            if n >= 1:
                if d <= 1.0:
                    rows.append(C1Quotient(f"1/3^{n}", "left", h, next(left)))
                # right-sided at 1/3^n lands in the gap where F = 3x;
                # for n = 1 the right side is the hole, outside the domain
                if n >= 2 and d < 1.0:
                    rows.append(C1Quotient(f"1/3^{n}", "right", h, 3.0))
                if d <= 1.0:
                    rows.append(C1Quotient(f"2/3^{n + 1}", "right", h,
                                           next(right)))
                if d < 1.0:
                    rows.append(C1Quotient(f"2/3^{n + 1}", "left", h, 3.0))
            else:
                # J_0 = [2/3, 1]: the branch is affine, quotients are exact
                rows.append(C1Quotient("1", "left", h, 3.0))
                rows.append(C1Quotient("2/3", "right", h, 3.0))
            if p.locus is Locus.GAP:
                rows.append(C1Quotient("0", "right", h, 3.0))
            elif p.locus is Locus.INJ and p.n >= 1:
                rows.append(C1Quotient("0", "right", h, next(zero)))
        midpoint_rows = [C1Quotient("0", "right-midpoints", float(mi), q)
                         for mi, q in midpoints]
        return C1BoundaryReport(n=n, rows=rows, midpoint_rows=midpoint_rows)


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
    constants = engine.certify(grid_n=grid_n)
    return CookieMap(constants, engine)
