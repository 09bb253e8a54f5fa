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
HOLE stay open. Supported depth: n <= 600 (far past the raw-float floor);
a raw value whose window or gap index exceeds 600 raises DomainError.
There is one classifier, PointBatch.from_raw; ScaledPoint.from_raw is a
batch of one over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import DomainError

_LN3 = math.log(3.0)
_MAX_INDEX = 600

# 3^k correctly rounded, k = 0..646, and inf at 647 for every larger k
# (3^647 overflows float64). Every raw <-> scaled conversion reads its
# powers from here, so ScaledPoint.raw and PointBatch.raw agree bitwise; a
# libm pow is not correctly rounded (np.power(3.0, k) misses for 32
# k <= 646, the first k = 41).
_POW3_TOP = 647
_POW3 = np.array([float(3 ** k) for k in range(_POW3_TOP)] + [math.inf])


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
        return math.log(self.u + 2.0) - (self.n + 1) * _LN3

    @property
    def in_domain(self) -> bool:
        """True unless the point sits in the central hole (1/3, 2/3)."""
        return self.locus is not Locus.HOLE

    @classmethod
    def from_raw(cls, x: float) -> "ScaledPoint":
        """Classify one raw value: a batch of one over PointBatch.from_raw."""
        return PointBatch.from_raw(np.array([x], dtype=np.float64)).point(0)

    @classmethod
    def zero(cls) -> "ScaledPoint":
        return cls(Locus.ZERO)

    @classmethod
    def in_window(cls, n: int, u: float) -> "ScaledPoint":
        return cls(Locus.INJ, n, u)


def _pow3(n: int) -> float:
    return float(_POW3[min(n, _POW3_TOP)])


def _pow3_batch(n: np.ndarray) -> np.ndarray:
    return _POW3[np.minimum(n, _POW3_TOP)]


def _indices(mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """np.nonzero(mask); a mask of more than one axis goes by way of the
    flat indices, which on a 4 096 x 257 mask with few entries takes 0.2
    against 2.3 ns a point."""
    if mask.ndim == 1:
        return mask.nonzero()
    return np.unravel_index(np.flatnonzero(mask), mask.shape)


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
        if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
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
            # n with x 3^n in (1/3, 1]: the log estimate, corrected by one
            nl = np.floor(-np.log(xl) / _LN3).astype(np.int64)
            nl[xl * _pow3_batch(nl) > 1.0] -= 1
            nl[xl * _pow3_batch(nl) <= 1.0 / 3.0] += 1
            if nl.max() > _MAX_INDEX:
                raise DomainError(f"points too deep to classify (n > {_MAX_INDEX})")
            scaled = xl * _pow3_batch(nl)
            is_window = scaled >= 2.0 / 3.0
            # windows: x * 3^(n+1) is in [2, 3] where subtracting 2 is exact
            uw = np.clip(xl * _pow3_batch(nl + 1) - 2.0, 0.0, 1.0)
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
        """The float64 values, each bitwise ScaledPoint.raw: the window
        formula (u + 2) / 3^(n+1) on every point, then the few points off
        the windows (gaps, the hole and 0) repaired by index."""
        return _raw_into(self, np.empty(self.u.shape))

    def point(self, i: int) -> ScaledPoint:
        return ScaledPoint(Locus(int(self.locus.flat[i])),
                           int(self.n.flat[i]), float(self.u.flat[i]))


def _raw_into(b: PointBatch, out: np.ndarray) -> np.ndarray:
    """b.raw() written into out, shaped like b, which it returns."""
    # divide by the power rather than multiplying by its reciprocal so
    # batch and scalar raw views agree bitwise
    np.add(b.u, 2.0, out=out)
    out /= _pow3_batch(b.n + 1)
    off = _indices(b.locus != int(Locus.INJ))
    if off[0].size:
        locus, n, u = b.locus[off], b.n[off], b.u[off]
        out[off] = np.where(locus == int(Locus.GAP), u / _pow3_batch(n),
                            np.where(locus == int(Locus.ZERO), 0.0, u))
    return out
