"""Shared utilities: physical constants, seeded RNG, validation, tables.

These helpers are deliberately tiny and dependency-free so that every other
subpackage (photonics, circuits, nn, core, ...) can rely on them without
import cycles.
"""

from repro.util.rng import derive_rng, spawn_seeds
from repro.util.tables import format_table
from repro.util.units import (
    C_LIGHT_M_S,
    ELEMENTARY_CHARGE_C,
    KB_J_PER_K,
    PLANCK_J_S,
    ROOM_TEMPERATURE_K,
    db_to_linear,
    linear_to_db,
    wavelength_to_frequency,
)
from repro.util.validation import (
    check_in_range,
    check_positive,
    check_power_of_two,
    check_probability,
)

__all__ = [
    "C_LIGHT_M_S",
    "ELEMENTARY_CHARGE_C",
    "KB_J_PER_K",
    "PLANCK_J_S",
    "ROOM_TEMPERATURE_K",
    "check_in_range",
    "check_positive",
    "check_power_of_two",
    "check_probability",
    "db_to_linear",
    "derive_rng",
    "format_table",
    "linear_to_db",
    "spawn_seeds",
    "wavelength_to_frequency",
]
