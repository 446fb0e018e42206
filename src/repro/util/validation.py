"""Small argument-validation helpers used across the package.

They raise ``ValueError`` with a message that names the offending parameter,
which keeps configuration mistakes (negative powers, bit-widths of zero, ...)
close to their source instead of surfacing as NaNs deep inside a sweep.
"""

from __future__ import annotations

import numbers


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0`` and return it."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_count(name: str, value: int, minimum: int = 1) -> int:
    """Require an integral ``value >= minimum`` (``np.int64`` too, not
    ``bool``)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < minimum
    ):
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0`` (so not NaN) and return it."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_in_range(name: str, value: float, low: float, high: float) -> float:
    """Require ``low <= value <= high`` and return it."""
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Require a probability in [0, 1] and return it."""
    return check_in_range(name, value, 0.0, 1.0)


def check_power_of_two(name: str, value: int) -> int:
    """Require a positive power of two and return it."""
    if value <= 0 or (value & (value - 1)) != 0:
        raise ValueError(f"{name} must be a positive power of two, got {value!r}")
    return value


def check_int_in(name: str, value: int, allowed: tuple[int, ...]) -> int:
    """Require ``value`` to be one of ``allowed`` and return it."""
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
    return value
