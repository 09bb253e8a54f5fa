"""Precision-safe point representation for the triadic interval hierarchy.

Raw float64 coordinates lose all significance inside windows of width
3^-(n+1) once n grows past ~30. Points are therefore carried in local
coordinates: which window J_n = [2/3^(n+1), 1/3^n] (or which gap between
windows) a point lies in, plus a unit-scale coordinate inside it. The raw
value is derived, never authoritative.

Loci
----
ZERO        the fixed point 0
INJ(n, u)   x = (u + 2) / 3^(n+1), u in [0,1]; J_0 = [2/3, 1] is the right
            branch piece, J_n for n >= 1 the shrinking left windows
GAP(n, v)   x = v / 3^n, v in (1/3, 2/3); the open gap just below J_n
HOLE(v)     x = v in (1/3, 2/3); outside the two-branch domain

Boundary points always classify into their neighboring window, so GAP and
HOLE stay open. Supported depth: n <= 600 (far past the raw-float floor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import DomainError

_LN3 = math.log(3.0)
_MAX_INDEX = 600


class Locus(IntEnum):
    ZERO = 0
    INJ = 1
    GAP = 2
    HOLE = 3


@dataclass(frozen=True)
class ScaledPoint:
    locus: Locus
    n: int = 0
    u: float = 0.0

    def __post_init__(self):
        if self.locus is Locus.INJ:
            if self.n < 0 or not 0.0 <= self.u <= 1.0:
                raise DomainError(f"bad window coordinate {self}")
        elif self.locus is Locus.GAP:
            if self.n < 1 or not (1.0 / 3.0 < self.u < 2.0 / 3.0):
                raise DomainError(f"bad gap coordinate {self}")
        elif self.locus is Locus.HOLE:
            if not (1.0 / 3.0 < self.u < 2.0 / 3.0):
                raise DomainError(f"bad hole coordinate {self}")

    @property
    def raw(self) -> float:
        """The float64 value; underflows to 0.0 past n ~ 646."""
        if self.locus is Locus.ZERO:
            return 0.0
        if self.locus is Locus.HOLE:
            return self.u
        if self.locus is Locus.GAP:
            return self.u / _pow3(self.n)
        return (self.u + 2.0) / _pow3(self.n + 1)

    @property
    def log_raw(self) -> float:
        """ln(raw), computed without underflow."""
        if self.locus is Locus.ZERO:
            return -math.inf
        if self.locus is Locus.HOLE:
            return math.log(self.u)
        if self.locus is Locus.GAP:
            return math.log(self.u) - self.n * _LN3
        if self.u == 0.0 and self.n == 0:
            return math.log(2.0) - _LN3
        return math.log(self.u + 2.0) - (self.n + 1) * _LN3

    @property
    def in_domain(self) -> bool:
        """True unless the point sits in the central hole (1/3, 2/3)."""
        return self.locus is not Locus.HOLE

    @classmethod
    def from_raw(cls, x: float) -> "ScaledPoint":
        locus, n, u = _classify_scalar(float(x))
        return cls(Locus(locus), int(n), float(u))

    @classmethod
    def zero(cls) -> "ScaledPoint":
        return cls(Locus.ZERO)

    @classmethod
    def in_window(cls, n: int, u: float) -> "ScaledPoint":
        return cls(Locus.INJ, n, u)


def _pow3(n: int) -> float:
    # exact as a float for n <= 33; later powers round once, still fine
    # for the derived raw view; 3^647 would overflow float64
    return float(3 ** n) if n <= 646 else math.inf


def _classify_scalar(x: float) -> tuple[int, int, float]:
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"point {x!r} outside [0,1]")
    if x == 0.0:
        return (int(Locus.ZERO), 0, 0.0)
    if x >= 2.0 / 3.0:
        return (int(Locus.INJ), 0, min(max(3.0 * x - 2.0, 0.0), 1.0))
    if x > 1.0 / 3.0:
        return (int(Locus.HOLE), 0, x)
    # x in (0, 1/3]: find n with x * 3^n in (1/3, 1]
    n = int(math.floor(-math.log(x) / _LN3))
    if n > _MAX_INDEX:
        raise DomainError(f"point {x!r} too deep to classify (n > {_MAX_INDEX})")
    scaled = x * float(3 ** n)
    if scaled > 1.0:
        n -= 1
        scaled = x * float(3 ** n)
    elif scaled <= 1.0 / 3.0:
        n += 1
        scaled = x * float(3 ** n)
    if scaled >= 2.0 / 3.0:
        # x * 3^(n+1) lands in [2, 3], so subtracting 2 is exact; this
        # keeps the raw <-> scaled round trip within one ulp
        u = x * float(3 ** (n + 1)) - 2.0
        return (int(Locus.INJ), n, min(max(u, 0.0), 1.0))
    return (int(Locus.GAP), n, scaled)


class PointBatch:
    """Struct-of-arrays form of ScaledPoint for the vectorized sweeps."""

    __slots__ = ("locus", "n", "u")

    def __init__(self, locus: np.ndarray, n: np.ndarray, u: np.ndarray):
        self.locus = locus
        self.n = n
        self.u = u

    @property
    def size(self) -> int:
        return self.u.size

    @classmethod
    def from_raw(cls, x: np.ndarray) -> "PointBatch":
        x = np.asarray(x, dtype=np.float64)
        if x.size and (x.min() < 0.0 or x.max() > 1.0):
            raise DomainError("points outside [0,1]")
        locus = np.full(x.shape, int(Locus.HOLE), dtype=np.int8)
        n = np.zeros(x.shape, dtype=np.int32)
        u = np.array(x, copy=True)

        locus[x == 0.0] = int(Locus.ZERO)
        u[x == 0.0] = 0.0

        right = x >= 2.0 / 3.0
        locus[right] = int(Locus.INJ)
        u[right] = np.clip(3.0 * x[right] - 2.0, 0.0, 1.0)

        left = (x > 0.0) & (x <= 1.0 / 3.0)
        if left.any():
            xl = x[left]
            if xl.min() < 3.0 ** (-_MAX_INDEX):
                raise DomainError(f"points too deep to classify (n > {_MAX_INDEX})")
            nl = np.floor(-np.log(xl) / _LN3).astype(np.int64)
            scaled = xl * np.power(3.0, nl)
            over = scaled > 1.0
            nl[over] -= 1
            under = xl * np.power(3.0, nl) <= 1.0 / 3.0
            nl[under] += 1
            scaled = xl * np.power(3.0, nl)
            is_window = scaled >= 2.0 / 3.0
            # windows: x * 3^(n+1) is in [2, 3] where subtracting 2 is exact
            uw = np.clip(xl * np.power(3.0, nl + 1) - 2.0, 0.0, 1.0)
            sub = np.flatnonzero(left)
            locus.flat[sub] = np.where(is_window, int(Locus.INJ), int(Locus.GAP))
            n.flat[sub] = nl
            u.flat[sub] = np.where(is_window, uw, scaled)
        return cls(locus, n, u)

    @classmethod
    def from_points(cls, points) -> "PointBatch":
        pts = list(points)
        return cls(
            np.array([int(p.locus) for p in pts], dtype=np.int8),
            np.array([p.n for p in pts], dtype=np.int32),
            np.array([p.u for p in pts], dtype=np.float64),
        )

    def raw(self) -> np.ndarray:
        # divide by the power rather than multiplying by its reciprocal so
        # batch and scalar raw views agree bitwise
        out = np.array(self.u, copy=True)
        inj = self.locus == int(Locus.INJ)
        gap = self.locus == int(Locus.GAP)
        out[inj] = (self.u[inj] + 2.0) / np.power(3.0, self.n[inj] + 1.0)
        out[gap] = self.u[gap] / np.power(3.0, self.n[gap].astype(np.float64))
        out[self.locus == int(Locus.ZERO)] = 0.0
        return out

    def point(self, i: int) -> ScaledPoint:
        return ScaledPoint(Locus(int(self.locus.flat[i])),
                           int(self.n.flat[i]), float(self.u.flat[i]))
