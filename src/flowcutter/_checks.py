"""The argument rules of the public entry points, stated once.

Every public function takes each integer, real and branch-symbol argument
through these helpers: the wrong kind or a value below its range raises
DomainError, a value over a cap DepthCapError. Each message names `what`.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

from .errors import DepthCapError, DomainError


def integer(value, what: str, least: int | None = None,
            cap: int | None = None) -> int:
    """value as a Python int. Python and numpy integers qualify, bools
    (numpy's too) do not. DomainError for any other kind or a value below
    least, DepthCapError for a value above cap."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}"
                          ) from None
    if least is not None and value < least:
        raise DomainError(f"{what} must be >= {least}, got {value}")
    if cap is not None and value > cap:
        raise DepthCapError(f"{what} {value} exceeds cap {cap}")
    return value


def real(value, what: str, least: float, most: float) -> float:
    """value as a float in [least, most]. Python and numpy reals qualify,
    integers among them; bools, strings, nan and +-inf do not: DomainError.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise DomainError(f"{what} must be a real number, got {value!r}")
    value = float(value)
    if not (math.isfinite(value) and least <= value <= most):
        raise DomainError(f"{what} must be finite and in [{least:g}, "
                          f"{most:g}], got {value!r}")
    return value


def reals(values: np.ndarray, what: str, least: float, most: float) -> None:
    """DomainError unless every entry of the float array values is in
    [least, most], nan never: the rule of real for each entry."""
    bad = ~((values >= least) & (values <= most))
    if bad.any():
        raise DomainError(f"{what} must be finite and in [{least:g}, "
                          f"{most:g}], got {float(values[bad].flat[0])!r}")


def symbol(value) -> int:
    """value as the int 0 or 1, else DomainError: every pull-back takes one
    branch symbol, so an array of symbols is refused too."""
    value = integer(value, "branch symbol")
    if value not in (0, 1):
        raise DomainError(f"branch symbol must be 0 or 1, got {value!r}")
    return value
