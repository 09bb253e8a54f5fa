"""Golden-section search, run in lockstep over a batch of brackets.

The package's one golden-section loop: the distortion refine (C_k), the
strong-bound witness (alpha, beta) and certification (B1) all call it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0        # 1/phi
INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0     # 1/phi^2


def golden_max(f: Callable[[np.ndarray], np.ndarray], a, b,
               iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Local maxima of f on the brackets [a, b], all searched in lockstep.

    f maps an array of points (one per bracket) to their values. Each of
    the iters steps shrinks every bracket by 1/phi and evaluates f once on
    the whole batch, so f runs iters + 2 times. Returns, per bracket, the
    better of the two final interior points and its value. When f is
    elementwise, each bracket's result depends on its own (a, b) only, so
    a batch returns bitwise what each bracket returns alone. f is assumed
    unimodal on each bracket; on a flat or multimodal one the result is
    still a point that was evaluated there.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    h = b - a
    x1 = a + INV_PHI_SQ * h
    x2 = a + INV_PHI * h
    f1 = f(x1)
    f2 = f(x2)
    for _ in range(iters):
        take = f1 > f2                      # keep the left subinterval
        b = np.where(take, x2, b)
        a = np.where(take, a, x1)
        h = b - a
        cand1 = a + INV_PHI_SQ * h
        cand2 = a + INV_PHI * h
        probe = np.where(take, cand1, cand2)
        f_probe = f(probe)
        x1, x2, f1, f2 = (
            np.where(take, cand1, x2),
            np.where(take, x1, cand2),
            np.where(take, f_probe, f2),
            np.where(take, f1, f_probe),
        )
    take = f1 > f2
    return np.where(take, x1, x2), np.where(take, f1, f2)


def golden_min(f: Callable[[np.ndarray], np.ndarray], a, b,
               iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Local minima of f on the brackets [a, b]; see golden_max."""
    x, y = golden_max(lambda t: -f(t), a, b, iters)
    return x, -y
