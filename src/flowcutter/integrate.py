"""Adaptive embedded Runge-Kutta stepping, vectorized over batches of states.

The solver advances autonomous systems y' = f(y) from s = 0 to s = 1, where
y is a numpy array of shape (d, n): d state rows and n independent batch
columns. All columns share one adaptive step size, controlled by the
max-norm of the embedded error estimate over the whole batch, so a large
family of initial conditions integrates in lockstep at a uniform accuracy
target. Per-column time horizons are handled by folding the horizon into f
as a constant factor.

The tableau is Verner's "most robust" 6(5) pair: nine stages, 6th order
propagation with an embedded 5th order error estimate. See Verner,
Numerical Algorithms 53 (2010), and Hairer/Norsett/Wanner vol. I.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import SolverError

# Extended Butcher tableau (row i holds a_{i,0..i-1}); the last row equals
# the 6th order weights, giving a free final-stage evaluation.
_A = (
    (9 / 50,),
    (29 / 324, 25 / 324),
    (1 / 16, 0.0, 3 / 16),
    (79129 / 250000, 0.0, -261237 / 250000, 19663 / 15625),
    (1336883 / 4909125, 0.0, -25476 / 30875, 194159 / 185250, 8225 / 78546),
    (-2459386 / 14727375, 0.0, 19504 / 30875, 2377474 / 13615875,
     -6157250 / 5773131, 902 / 735),
    (2699 / 7410, 0.0, -252 / 1235, -1393253 / 3993990, 236875 / 72618,
     -135 / 49, 15 / 22),
    (11 / 144, 0.0, 0.0, 256 / 693, 0.0, 125 / 504, 125 / 528, 5 / 72),
)

_B6 = (11 / 144, 0.0, 0.0, 256 / 693, 0.0, 125 / 504, 125 / 528, 5 / 72, 0.0)
_B5 = (28 / 477, 0.0, 0.0, 212 / 441, -312500 / 366177, 2125 / 1764, 0.0,
       -2105 / 35532, 2995 / 17766)
# The ninth stage's input is the 6th order solution: integrate_unit_interval
# takes y_new from there instead of summing the weights a second time.
if _A[-1] != _B6[:-1] or _B6[-1] != 0.0:
    raise AssertionError("tableau: the last row of _A must be the 6th order weights")
if not all(row[0] for row in _A):
    raise AssertionError("tableau: every stage sum must start with a nonzero weight")
# Truncation-error weights: difference of the propagating and embedded rows.
_TR = tuple(a - b for a, b in zip(_B6, _B5))

_ORDER = 6
_SAFETY = 0.9
_MAX_GROW = 5.0
_MIN_SHRINK = 0.2
# Hard cap on accepted plus rejected steps per solve.
MAX_STEPS = 10_000


def integrate_unit_interval(
    f: Callable[[np.ndarray], np.ndarray],
    y0: np.ndarray,
    atol: float = 1e-13,
) -> tuple[np.ndarray, float, int]:
    """Integrate y' = f(y) over s in [0, 1] with shared adaptive steps.

    Parameters
    ----------
    f : callable
        Right hand side; maps a (d, n) state array to its derivative.
    y0 : ndarray
        Initial state of shape (d, n). Not modified.
    atol : float
        Absolute tolerance on the per-step embedded error, max-norm over
        every component of the batch.

    Returns
    -------
    (y, err_acc, n_steps)
        Final state, the sum of accepted per-step error estimates (a cheap
        global error proxy), and the number of accepted steps.

    Raises SolverError when the step size underflows or MAX_STEPS steps
    do not reach s = 1.
    """
    y = np.array(y0, dtype=np.float64, copy=True)
    s = 0.0
    h = 1.0          # the field is tame; try to cross in one step
    err_acc = 0.0
    accepted = 0
    tmp = np.empty_like(y)   # one scratch buffer for every stage term
    for _ in range(MAX_STEPS):
        if 1.0 - s <= 1e-16:
            return y, err_acc, accepted
        h = min(h, 1.0 - s)
        k = [f(y)]
        for row in _A:
            # every row's first weight is nonzero: the stage sum starts as
            # y + its first term, the same bits as a copy of y plus it
            np.multiply(k[0], h * row[0], out=tmp)
            yi = y + tmp
            for a_ij, kj in zip(row[1:], k[1:]):
                if a_ij != 0.0:
                    np.multiply(kj, h * a_ij, out=tmp)
                    yi += tmp
            k.append(f(yi))
        y_new = yi               # last row of _A == _B6, checked at import
        err_vec = np.zeros_like(y)
        for tr_i, ki in zip(_TR, k):
            if tr_i != 0.0:
                np.multiply(ki, h * tr_i, out=tmp)
                err_vec += tmp
        err = float(np.max(np.abs(err_vec))) if err_vec.size else 0.0
        if err <= atol:
            s += h
            y = y_new
            err_acc += err
            accepted += 1
            if err == 0.0:
                h *= _MAX_GROW
            else:
                h *= min(_MAX_GROW, _SAFETY * (atol / err) ** (1.0 / _ORDER))
        else:
            h *= max(_MIN_SHRINK, _SAFETY * (atol / err) ** (1.0 / _ORDER))
            if h < 1e-12:
                raise SolverError(
                    f"step size underflow at s={s:.6g} (err={err:.3e}, atol={atol:.3e})"
                )
    raise SolverError(f"step budget exhausted ({MAX_STEPS} steps, s={s:.6g})")
