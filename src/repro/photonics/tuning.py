"""Thermo-optic / electro-optic hybrid MR tuning model.

Weight mapping requires shifting each MR's resonance by up to a channel
spacing.  The paper (following CrossLight [18]) combines:

* **Thermo-optic (TO)** tuning — micro-heater above the ring: large range
  (can cover a full FSR) but slow (microseconds) and power-hungry;
* **Electro-optic (EO)** tuning — carrier injection in a PIN junction: fast
  (nanoseconds) but small range (tens of picometres).

The hybrid scheme uses TO for the coarse shift and EO for the fine trim, so
weight *updates* after the initial mapping are usually EO-only.  This module
prices both the transient energy of a retune and the static holding power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.units import MW, NM, NS, US
from repro.util.validation import (
    check_finite_non_negative,
    check_non_negative,
    check_positive,
)


@dataclass(frozen=True)
class TuningBudget:
    """Energy/latency cost of one resonance shift."""

    energy_j: float
    latency_s: float
    holding_power_w: float

    def __post_init__(self) -> None:
        check_non_negative("energy_j", self.energy_j)
        check_non_negative("latency_s", self.latency_s)
        check_non_negative("holding_power_w", self.holding_power_w)


@dataclass(frozen=True)
class HybridTuning:
    """TO + EO hybrid tuner for one MR.

    Defaults: TO efficiency ~21 mW per FSR-scale shift (normalised here to
    mW/nm), TO time constant 4 us; EO range 50 pm with ~ns response at
    negligible static power (reverse-biased junction).
    """

    to_power_per_nm_w: float = 0.25 * MW
    to_settle_time_s: float = 4.0 * US
    eo_range_m: float = 0.05 * NM
    eo_settle_time_s: float = 2.0 * NS
    eo_energy_per_shift_j: float = 18e-15
    eo_holding_power_w: float = 0.0

    def __post_init__(self) -> None:
        check_positive("to_power_per_nm_w", self.to_power_per_nm_w)
        check_positive("to_settle_time_s", self.to_settle_time_s)
        check_positive("eo_range_m", self.eo_range_m)
        check_positive("eo_settle_time_s", self.eo_settle_time_s)
        # mapping_cost() relies on a finite setting times an exact zero
        # being an exact zero.
        for name in (
            "to_power_per_nm_w",
            "to_settle_time_s",
            "eo_energy_per_shift_j",
            "eo_holding_power_w",
        ):
            check_finite_non_negative(name, getattr(self, name))

    def split_shift(self, shift_m: float) -> tuple[float, float]:
        """Split a requested shift into (TO part, EO part), both in metres.

        The EO stage absorbs as much of the shift as its range allows; the
        remainder goes to the heater.
        """
        magnitude = abs(shift_m)
        eo = min(magnitude, self.eo_range_m)
        to = magnitude - eo
        sign = 1.0 if shift_m >= 0 else -1.0
        return sign * to, sign * eo

    def retune(self, shift_m: float) -> TuningBudget:
        """Cost of moving a resonance by ``shift_m`` from its current spot."""
        to_shift, eo_shift = self.split_shift(shift_m)
        to_power = self.to_power_per_nm_w * (abs(to_shift) / NM)
        if to_shift != 0.0:
            latency = self.to_settle_time_s
            energy = to_power * self.to_settle_time_s + self.eo_energy_per_shift_j
        else:
            latency = self.eo_settle_time_s
            energy = self.eo_energy_per_shift_j if eo_shift != 0.0 else 0.0
        holding = to_power + (self.eo_holding_power_w if eo_shift != 0.0 else 0.0)
        return TuningBudget(energy_j=energy, latency_s=latency, holding_power_w=holding)

    def mapping_cost(
        self, shifts_m: np.ndarray | list[float] | tuple[float, ...]
    ) -> TuningBudget:
        """Aggregate cost of mapping a whole set of MR shifts.

        All MRs retune in parallel, so latency is the max over devices while
        energy and holding power add up.  This is the "weight mapping" step
        the paper performs once per kernel set (then bypasses).

        Accepts an ndarray of any shape (flattened) or a list/tuple; the
        whole set prices in a handful of in-place array ops over two
        buffers instead of one :meth:`retune` call per MR.  The sums run
        left-to-right over the flat order (``cumsum``, not pairwise), so
        totals are bit-identical to the original sequential Python
        accumulation.
        """
        shifts = np.asarray(shifts_m, dtype=float).reshape(-1)
        if shifts.size == 0:
            return TuningBudget(0.0, 0.0, 0.0)
        # Elementwise the same arithmetic as split_shift()/retune(): the EO
        # stage absorbs up to its range, the heater takes the remainder.
        to = np.abs(shifts)
        eo = np.minimum(to, self.eo_range_m)
        to -= eo
        has_to = to != 0.0
        # A heater part implies an EO part, since the EO range is above 0.
        moved = eo != 0.0
        to /= NM
        to *= self.to_power_per_nm_w  # the heater's power, +0.0 if none
        # TO power x settle time + the EO shift: where nothing heats that
        # is exactly the EO shift alone, and 0 where the ring stays put.
        energy = np.multiply(to, self.to_settle_time_s, out=eo)
        energy += self.eo_energy_per_shift_j
        energy *= moved
        energy_j = float(np.cumsum(energy, out=energy)[-1])
        holding = to
        holding += np.multiply(moved, self.eo_holding_power_w, out=energy)
        # The slowest ring sets the latency: the TO settle time if any
        # ring heats, the EO one if any ring does not.
        latency = max(
            self.to_settle_time_s if has_to.any() else 0.0,
            0.0 if has_to.all() else self.eo_settle_time_s,
        )
        return TuningBudget(
            energy_j=energy_j,
            latency_s=latency,
            holding_power_w=float(np.cumsum(holding, out=holding)[-1]),
        )
