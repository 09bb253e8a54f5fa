"""The two-branch expanding map built from the flow.

The left branch piece [0, 1/3] is tiled by windows J_n = [2/3^(n+1), 1/3^n]
accumulating at 0. On J_n (n >= 1) the map conjugates the flow at a dyadic
time t_n into the window, F = B_n o phi_{t_n} o A_n, where A_n and B_n are
the affine charts; on the gaps between windows F is plain 3x, and on the
right piece [2/3, 1] it is 3x - 2. The time schedule t_n = (-1/2)^k T for
2^k <= n < 2^(k+1) makes consecutive blocks cancel, which keeps every
cumulative time inside [0, T] while letting a full block of times pile up
to +-T. That tension (cumulative times bounded, block sums not vanishing)
is what the distortion analyzers downstream quantify.

Everything here consumes and produces ScaledPoint / PointBatch coordinates;
raw float evaluation exists only as a cross-check (apply_raw).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, EscapeError
from .flow import FlowConstants, FlowEngine
from .scaled import Locus, PointBatch, ScaledPoint

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
    u = float(3 ** (n + 1)) * x - 2.0
    if not -1e-9 <= u <= 1.0 + 1e-9:
        raise DomainError(f"{x!r} is not in J_{n}")
    return min(max(u, 0.0), 1.0)


def affine_B(n: int, u: float) -> float:
    """Chart B_n(u) = (u + 2) / 3^n, mapping [0,1] onto J_{n-1}."""
    if n < 0:
        raise DomainError(f"chart index must be >= 0, got {n}")
    if not 0.0 <= u <= 1.0:
        raise DomainError(f"unit coordinate {u!r} outside [0,1]")
    return (u + 2.0) / float(3 ** n)


# ----------------------------------------------------------------------
# the dyadic time schedule
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TimeSchedule:
    """Flow times t_n = (-1/2)^k T for 2^k <= n < 2^(k+1), n >= 1.

    The exponent k = floor(log2 n) is always taken from integer bit
    arithmetic (bit_length, or exact frexp on the vectorized path);
    floating log2 is off by one at powers of two.
    """

    T: float

    def flow_time(self, n: int) -> float:
        if n < 1:
            raise DomainError(f"schedule index must be >= 1, got {n}")
        k = n.bit_length() - 1
        return (-0.5) ** k * self.T

    @staticmethod
    def blocks(n: np.ndarray) -> np.ndarray:
        """The block index k = floor(log2 n) of each schedule index n >= 1."""
        # frexp is exact for integers below 2^53: n = m * 2^e with m in [0.5,1)
        _, e = np.frexp(np.asarray(n).astype(np.float64))
        return e - 1

    def flow_times(self, n: np.ndarray) -> np.ndarray:
        k = self.blocks(n)
        mag = np.ldexp(np.full(k.shape, self.T), -k)
        return np.where(k % 2 == 0, mag, -mag)

    def cumulative_time(self, n: int) -> float:
        """Closed form for t_1 + ... + t_n; always lands in [0, T].

        Complete blocks alternate between +T and -T and cancel in pairs,
        so only the block containing n contributes: (n - 2^k + 1)/2^k of
        +-T, measured from 0 for even k and down from T for odd k.
        """
        if n < 1:
            raise DomainError(f"schedule index must be >= 1, got {n}")
        k = n.bit_length() - 1
        r = (n - (1 << k) + 1) / (1 << k)   # dyadic, exact in float64
        return r * self.T if k % 2 == 0 else (1.0 - r) * self.T

    def block_sum(self, k: int) -> float:
        """Sum of t_n over the full block 2^k <= n < 2^(k+1): exactly (-1)^k T."""
        return self.T if k % 2 == 0 else -self.T


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
        if p.locus is Locus.HOLE:
            raise DomainError("point in the central hole is outside the domain of F")
        if p.locus is Locus.ZERO:
            return p
        if p.locus is Locus.GAP:
            if p.n == 1:
                return ScaledPoint(Locus.HOLE, 0, p.u)
            return ScaledPoint(Locus.GAP, p.n - 1, p.u)
        if p.n == 0:
            return ScaledPoint.from_raw(p.u)
        t = self.schedule.flow_time(p.n)
        y = self.engine.flow_position(t, p.u)
        return ScaledPoint.in_window(p.n - 1, y)

    def derivative(self, p: ScaledPoint) -> float:
        """F'(p): exactly 3 off the deep windows, 3 phi_{t_n}'(u) on them."""
        if p.locus is Locus.HOLE:
            raise DomainError("point in the central hole is outside the domain of F")
        if p.locus is Locus.INJ and p.n >= 1:
            t = self.schedule.flow_time(p.n)
            return 3.0 * self.engine.flow_derivative(t, p.u)
        return 3.0

    def log_derivative(self, p: ScaledPoint) -> float:
        """ln F'(p), split so the ln 3 part stays exact."""
        if p.locus is Locus.HOLE:
            raise DomainError("point in the central hole is outside the domain of F")
        if p.locus is Locus.INJ and p.n >= 1:
            t = self.schedule.flow_time(p.n)
            return LN3 + math.log(self.engine.flow_derivative(t, p.u))
        return LN3

    def iterate(self, p: ScaledPoint, k: int,
                hole_slack: float = 0.0) -> IterateResult:
        """F^k(p) and log (F^k)'(p), accumulated in log space.

        Window steps read phi_{t_n} and its log slope from the forward
        table of their block (block_flow): no ODE solve once it exists.

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
            if q.locus is Locus.INJ and q.n >= 1:
                y, log_slope = self.block_flow(
                    1.0, self.schedule.blocks(np.array([q.n])), np.array([q.u]))
                extra += float(log_slope[0])
                q = ScaledPoint.in_window(q.n - 1, float(y[0]))
            else:
                q = self.apply(q)
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

    def inverse_batch(self, symbol: int, b: PointBatch) -> tuple[PointBatch, np.ndarray]:
        """One inverse branch on a batch; returns (preimage, log F' - ln 3).

        The reported log increment is the slope of F at the *preimage*,
        obtained for free from the backward flow's log slope, since
        phi_t'(phi_{-t}(u)) * phi_{-t}'(u) = 1. Window points flow through
        the engine's displacement tables (FlowEngine.table_flow), so each
        preimage and increment is a pure function of its own point: the
        results are bitwise the same whatever batch, shard or thread
        computes them.
        """
        if symbol == 1:
            raw = b.raw()
            return PointBatch(
                np.full(b.u.shape, int(Locus.INJ), dtype=np.int8),
                np.zeros(b.u.shape, dtype=np.int32),
                raw,
            ), np.zeros(b.u.shape)
        if symbol != 0:
            raise DomainError(f"branch symbol must be 0 or 1, got {symbol!r}")
        locus = b.locus.copy()
        n = b.n.copy()
        u = b.u.copy()
        extra = np.zeros(b.u.shape)

        hole = b.locus == int(Locus.HOLE)
        locus[hole] = int(Locus.GAP)
        n[hole] = 1
        gap = b.locus == int(Locus.GAP)
        n[gap] += 1

        inj = b.locus == int(Locus.INJ)
        if inj.any():
            y, log_slope = self.block_flow(
                -1.0, self.schedule.blocks(b.n[inj] + 1), b.u[inj])
            u[inj] = y
            n[inj] += 1
            extra[inj] = -log_slope
        return PointBatch(locus, n, u), extra

    def block_flow(self, direction: float, k: np.ndarray, u: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
        """phi_t(u) and log phi_t'(u) with t = direction (-1/2)^k T, from
        the tables.

        direction +1 is the flow half of F on a window J_n, whose block
        index is k = TimeSchedule.blocks(n); direction -1 that of the
        0-branch pull-back from J_n into J_(n+1), k = blocks(n + 1). The
        values come from the engine's displacement tables
        (FlowEngine.table_flow), one per direction and block index, so each
        is a pure function of its own (k, u). k must be nonempty.
        """
        times = [direction * self.schedule.flow_time(1 << j)
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
        """
        if n < 0:
            raise DomainError(f"window index must be >= 0, got {n}")
        if h_min <= 0.0:
            raise DomainError("h_min must be positive")
        rows: list[C1Quotient] = []
        steps = []
        h = 1e-2
        while h >= h_min * (1.0 - 1e-12):
            steps.append(h)
            h /= 10.0

        pow3np1 = float(3 ** (n + 1))
        for h in steps:
            if n >= 1:
                # left-sided at 1/3^n: x - h sits at u = 1 - h 3^(n+1) in J_n
                du = h * pow3np1
                if du <= 1.0:
                    t = self.schedule.flow_time(n)
                    y = self.engine.flow_position(t, 1.0 - du)
                    q = 3.0 * (1.0 - y) / du
                    rows.append(C1Quotient(f"1/3^{n}", "left", h, q))
                # right-sided at 1/3^n lands in the gap where F = 3x;
                # for n = 1 the right side is the hole, outside the domain
                if n >= 2 and du < 1.0:
                    rows.append(C1Quotient(f"1/3^{n}", "right", h, 3.0))
                # right-sided at 2/3^(n+1): x + h sits at u = h 3^(n+1)
                if du <= 1.0:
                    t = self.schedule.flow_time(n)
                    y = self.engine.flow_position(t, du)
                    q = 3.0 * y / du
                    rows.append(C1Quotient(f"2/3^{n + 1}", "right", h, q))
                if du < 1.0:
                    rows.append(C1Quotient(f"2/3^{n + 1}", "left", h, 3.0))
            else:
                # J_0 = [2/3, 1]: the branch is affine, quotients are exact
                rows.append(C1Quotient("1", "left", h, 3.0))
                rows.append(C1Quotient("2/3", "right", h, 3.0))
            # right-sided at 0 with the raw step h (lands in a gap or window)
            p = ScaledPoint.from_raw(h)
            if p.locus is Locus.GAP:
                rows.append(C1Quotient("0", "right", h, 3.0))
            elif p.locus is Locus.INJ and p.n >= 1:
                t = self.schedule.flow_time(p.n)
                y = self.engine.flow_position(t, p.u)
                q = 3.0 * (y + 2.0) / (p.u + 2.0)
                rows.append(C1Quotient("0", "right", h, q))

        # window-midpoint family at 0: h = midpoint of J_m, m doubling;
        # convergence here is paced by t_m ~ T / m, the slow direction
        midpoint_rows: list[C1Quotient] = []
        m = 1
        while m <= 1 << 13:
            t = self.schedule.flow_time(m)
            y = self.engine.flow_position(t, 0.5)
            q = 3.0 * (y + 2.0) / 2.5
            midpoint_rows.append(C1Quotient("0", "right-midpoints", float(m), q))
            m *= 2
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
