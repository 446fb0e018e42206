"""Small argument-validation helpers used across the package.

They raise ``ValueError`` with a message that names the offending parameter,
which keeps configuration mistakes (negative powers, bit-widths of zero, ...)
close to their source instead of surfacing as NaNs deep inside a sweep.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Collection


def registry_key(kind: str, name: str, known: Collection[str]) -> str:
    """The key among ``known`` (lower-case keys) that ``name`` spells.

    The one rule for every registry name a user types: surrounding
    spaces and case do not matter.  An unknown name (or a non-string)
    raises ``ValueError`` listing the keys.
    """
    key = name.strip().lower() if isinstance(name, str) else name
    if key not in known:
        raise ValueError(
            f"unknown {kind} {name!r}; known: {', '.join(sorted(known))}"
        )
    return key


def parse_field(kind: type, name: str, text: str, form: str):
    """``kind(text)`` for the ``name`` field of a spec written as ``form``.

    A malformed field raises ``ValueError`` naming the field and the
    expected form, not the bare conversion error.
    """
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(
            f"{name} must be {noun} in {form!r}, got {text!r}"
        ) from None


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0`` and return it."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(name: str, value: int, minimum: int = 1) -> int:
    """Require an integral ``value >= minimum`` (``np.int64`` too, not
    ``bool``)."""
    if not _is_integer(value) or value < minimum:
        raise ValueError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )
    return value


def check_seed(value: int) -> int:
    """Require a random seed, an integer >= 0 (``np.uint64`` too, not
    ``bool``), and return it."""
    if not _is_integer(value) or value < 0:
        raise ValueError(f"seed must be a non-negative integer, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0`` (so not NaN) and return it."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_finite_non_negative(name: str, value: float) -> float:
    """Require a finite ``value >= 0`` (so not NaN or infinity) and return
    it: an onset or a period at infinity never comes round."""
    check_non_negative(name, value)
    if value == math.inf:
        raise ValueError(f"{name} must be finite, got {value!r}")
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
