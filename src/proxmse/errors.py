"""Exception types and the scalar checks shared across the package."""

import math
import operator


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


def require_int(value, name: str, minimum: int | None = None) -> int:
    """``value`` as a Python int (numpy integers included) of at least ``minimum``.

    A bool, a float or any other non-integer raises TypeError instead of
    being truncated; a value below ``minimum``, if one is given, raises ValueError.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value
