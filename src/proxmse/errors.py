"""Exception types and the scalar check shared across the package."""

import math


class InvalidStructureError(ValueError):
    """A signal structure descriptor violates its constraints (e.g. k > n)."""


class BoundNotValidError(ValueError):
    """A closed-form bound was queried below its validity threshold."""

    def __init__(self, message: str, threshold: float):
        super().__init__(message)
        self.threshold = threshold


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class RunQualityError(RuntimeError):
    """An experiment produced too many unusable trials to report statistics."""


def require_nonneg(value, name: str) -> float:
    """``value`` as a float; ValueError unless it is finite and nonnegative (so NaN fails)."""
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
    return value
