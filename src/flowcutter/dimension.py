"""Dimension of the repeller from finite-depth interval covers.

The headline estimator solves the finite-depth pressure equation
sum_w |I_w|^s = 1 by bisection (the sum is strictly decreasing in s, so
the root is unique and bracketed by s = 0 and s = 1). A box-counting
cross-check fits the slope of log N against log 1/eps over depth-indexed
covers. Both sit inside the a-priori bracket obtained from the certified
slope range 3 e^(-B1 T) <= F' <= 3 e^(B1 T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _checks
from .cookie import CookieMap
from .errors import BoundViolationError, DomainError
from .symbolic import IntervalSet, interval_table, word_levels

LN2 = math.log(2.0)
DIMENSION_DEPTH_CAP = 16
# the width of the bisection bracket at which pressure_root stops
PRESSURE_TOL = 1e-10


@dataclass(frozen=True)
class DimensionEstimate:
    depth: int
    method: str
    value: float
    lower: float
    upper: float


def certified_bracket(constants) -> tuple[float, float]:
    """Dimension bounds from the certified slope range of the map."""
    lo = LN2 / math.log(3.0 * math.exp(constants.B1 * constants.T))
    hi = LN2 / math.log(3.0 * math.exp(-constants.B1 * constants.T))
    return lo, hi


def pressure_sum(log_sizes: np.ndarray, s: float) -> float:
    """log of sum_w |I_w|^s, stable at any depth; s is a real in [0, 1],
    the bracket of the pressure root, and log_sizes a nonempty array of
    finite reals, else DomainError.

    The shifted log-sum-exp as scipy.special.logsumexp computes it, and
    bitwise equal to it: the m terms equal to the maximum a_max are
    taken out of the sum, the rest summed as exp(a - a_max) and divided
    by m, and the result is log1p(sum) + log(m) + a_max. The terms are
    made in place in one float64 scratch of the size of log_sizes.
    """
    s = _checks.real(s, "pressure exponent", 0.0, 1.0)
    a = np.asarray(log_sizes)
    if a.dtype.kind not in "iuf" or not a.size or not np.isfinite(a).all():
        raise DomainError(f"log sizes must be a nonempty array of finite "
                          f"reals, got {log_sizes!r}")
    a = np.multiply(a, s, dtype=np.float64)
    a_max = np.max(a)
    top = a == a_max
    m = np.float64(np.count_nonzero(top))
    a -= a_max
    a[top] = -np.inf
    np.exp(a, out=a)
    return float(np.log1p(np.sum(a) / m) + np.log(m) + a_max)


def pressure_root(log_sizes: np.ndarray) -> float:
    """Unique root of sum_w |I_w|^s = 1 by bisection on [0, 1], to a
    bracket of width PRESSURE_TOL: 34 halvings, the midpoint of the last
    bracket returned. log_sizes is checked as pressure_sum checks it."""
    lo, hi = 0.0, 1.0
    if pressure_sum(log_sizes, lo) <= 0.0 or pressure_sum(log_sizes, hi) >= 0.0:
        raise BoundViolationError(
            "pressure root not bracketed by [0,1]; interval sizes are wrong")
    while hi - lo > PRESSURE_TOL:
        mid = 0.5 * (lo + hi)
        if pressure_sum(log_sizes, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bowen_dimension(cmap: CookieMap, depth: int) -> float:
    """The pressure root of the 2^depth basic intervals, 1 <= depth <=
    DIMENSION_DEPTH_CAP."""
    depth = _checks.integer(depth, "dimension depth", 1, DIMENSION_DEPTH_CAP)
    return pressure_root(interval_table(cmap, depth).log_sizes())


def box_dimension(cmap: CookieMap, depth: int) -> float:
    """Least-squares slope of log N(eps) vs log(1/eps) over depth covers.

    The depth-j cover uses all 2^j basic intervals at mesh eps_j = their
    largest width; convergence is only first order in depth, so this is a
    cross-check, not the headline number. A line needs two covers, so depth
    must be at least 2; it is capped at DIMENSION_DEPTH_CAP.
    """
    depth = _checks.integer(depth, "dimension depth", 2, DIMENSION_DEPTH_CAP)
    log_n = []
    log_inv_eps = []
    for j, table in enumerate(word_levels(IntervalSet.root(), cmap, depth), 1):
        log_n.append(j * LN2)
        log_inv_eps.append(-float(table.log_sizes().max()))
    slope = np.polyfit(np.array(log_inv_eps), np.array(log_n), 1)[0]
    return float(slope)


def dimension_estimate(cmap: CookieMap, depth: int,
                       method: str = "bowen") -> DimensionEstimate:
    """Finite-depth dimension of the repeller, with its certified bracket."""
    if method == "bowen":
        value = bowen_dimension(cmap, depth)
    elif method == "box":
        value = box_dimension(cmap, depth)
    else:
        raise DomainError(f"method must be 'bowen' or 'box', got {method!r}")
    lo, hi = certified_bracket(cmap.constants)
    return DimensionEstimate(depth=depth, method=method, value=value,
                             lower=lo, upper=hi)
