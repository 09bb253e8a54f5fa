"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SolverError(RuntimeError):
    """The adaptive step controller could not meet its tolerance.

    The bump field is globally smooth and tiny, so this should never fire;
    if it does, treat it as a bug in the caller or the stepper itself.
    """


class CertificationError(RuntimeError):
    """A certified constant failed its verification sweep."""


class EscapeError(RuntimeError):
    """An orbit left the two-branch domain before the requested iterate."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"orbit entered the central hole at step {step}")


class BoundViolationError(RuntimeError):
    """A measured quantity exceeded its theoretical bound (bug or bad constant)."""


class DepthCapError(ValueError):
    """A requested enumeration depth exceeds the configured cap."""
