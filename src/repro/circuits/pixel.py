"""3-transistor + photodiode active pixel (paper Fig. 3b).

Operating sequence modelled after Section III-A ("ADC-Less Imager"):

1. **Reset** — T1 pulls the photodiode node to ``VDD - V_th`` (we fold the
   threshold drop into ``reset_voltage_v``), fully charging the PD
   capacitance.
2. **Exposure** — with T1 off, the photocurrent (proportional to the scene
   illuminance) discharges the PD capacitance, so the source-follower gate
   voltage *drops* at a rate ``I_ph / C_pd``.
3. **Discharge** — T2 empties the node between frames.

The VAM thresholds the *voltage drop* ``V_drop = V_reset - V_pd`` at the end
of exposure, so a brighter pixel produces a larger drop and a larger ternary
symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.transient import TransientResult, rc_settle, time_grid
from repro.util.validation import check_in_range, check_non_negative, check_positive


@dataclass(frozen=True)
class PixelDesign:
    """Electrical parameters of the 3T1PD pixel (45 nm-class defaults)."""

    vdd_v: float = 1.0
    reset_voltage_v: float = 0.78
    pd_capacitance_f: float = 10e-15
    dark_current_a: float = 2e-12
    photocurrent_per_lux_a: float = 30e-12
    reset_tau_s: float = 0.25e-9
    discharge_tau_s: float = 0.2e-9
    source_follower_gain: float = 0.85

    def __post_init__(self) -> None:
        check_positive("vdd_v", self.vdd_v)
        check_in_range("reset_voltage_v", self.reset_voltage_v, 0.0, self.vdd_v)
        check_positive("pd_capacitance_f", self.pd_capacitance_f)
        check_non_negative("dark_current_a", self.dark_current_a)
        check_positive("photocurrent_per_lux_a", self.photocurrent_per_lux_a)
        check_positive("reset_tau_s", self.reset_tau_s)
        check_positive("discharge_tau_s", self.discharge_tau_s)
        check_in_range("source_follower_gain", self.source_follower_gain, 0.0, 1.0)


class ThreeTransistorPixel:
    """Behavioral 3T pixel producing photodiode-node transients."""

    def __init__(self, design: PixelDesign | None = None) -> None:
        self.design = design or PixelDesign()

    def photocurrent_a(self, illuminance_lux: float) -> float:
        """Photocurrent [A] for a scene illuminance [lux]."""
        check_non_negative("illuminance_lux", illuminance_lux)
        return (
            self.design.dark_current_a
            + self.design.photocurrent_per_lux_a * illuminance_lux
        )

    def exposure_drop_v(self, illuminance_lux: float, exposure_s: float) -> float:
        """Voltage drop across the PD node after ``exposure_s`` of light.

        Linear discharge clipped at the full reset voltage (saturated
        pixel).
        """
        check_positive("exposure_s", exposure_s)
        drop = (
            self.photocurrent_a(illuminance_lux)
            * exposure_s
            / self.design.pd_capacitance_f
        )
        return min(drop, self.design.reset_voltage_v)

    def output_voltage_v(self, illuminance_lux: float, exposure_s: float) -> float:
        """Source-follower output voltage at the end of exposure.

        The VAM's sense amplifiers compare this value against their
        references; brighter scenes give *larger* outputs because the
        follower buffers the drop ``V_reset - V_pd``  (the paper's SA inputs
        rise with absorbed light, cf. Fig. 8 where Out1 > Out2 > Out3).
        """
        drop = self.exposure_drop_v(illuminance_lux, exposure_s)
        return self.design.source_follower_gain * drop

    def transient(
        self,
        illuminance_lux: float,
        duration_s: float = 40e-9,
        dt_s: float = 0.02e-9,
        reset_start_s: float = 1e-9,
        reset_width_s: float = 2e-9,
        discharge_start_s: float = 34e-9,
        discharge_width_s: float = 3e-9,
    ) -> TransientResult:
        """Full-frame transient: reset pulse, exposure ramp, discharge.

        Returns traces ``Rst``, ``Dcharge``, ``Vpd`` (photodiode node) and
        ``Out`` (source-follower view of the accumulated drop).
        """
        times = time_grid(duration_s, dt_s)
        design = self.design

        reset = np.where(
            (times >= reset_start_s) & (times < reset_start_s + reset_width_s),
            design.vdd_v,
            0.0,
        )
        discharge = np.where(
            (times >= discharge_start_s)
            & (times < discharge_start_s + discharge_width_s),
            design.vdd_v,
            0.0,
        )

        current = self.photocurrent_a(illuminance_lux)
        slope_v_per_s = current / design.pd_capacitance_f

        vpd = np.zeros_like(times)
        # Phase 1: before reset the node floats near 0 (previous discharge).
        # Phase 2: reset pulse charges the node.
        reset_end = reset_start_s + reset_width_s
        charging = rc_settle(
            times, 0.0, design.reset_voltage_v, design.reset_tau_s, reset_start_s
        )
        # Phase 3: exposure — linear discharge from the reset value.
        exposure = design.reset_voltage_v - slope_v_per_s * (times - reset_end)
        exposure = np.clip(exposure, 0.0, design.reset_voltage_v)
        # Phase 4: discharge pulse empties the node.
        v_at_discharge = float(
            np.interp(
                discharge_start_s,
                times,
                np.where(times < reset_end, charging, exposure),
            )
        )
        discharging = rc_settle(
            times, v_at_discharge, 0.0, design.discharge_tau_s, discharge_start_s
        )

        vpd = np.where(times < reset_end, charging, exposure)
        vpd = np.where(times >= discharge_start_s, discharging, vpd)

        out = design.source_follower_gain * (design.reset_voltage_v - vpd)
        # The follower output is only meaningful between reset and discharge.
        out = np.where(times < reset_end, 0.0, out)
        out = np.where(times >= discharge_start_s, 0.0, out)

        result = TransientResult(times_s=times)
        result.add("Rst", reset)
        result.add("Dcharge", discharge)
        result.add("Vpd", vpd)
        result.add("Out", out)
        return result

    def saturation_illuminance_lux(self, exposure_s: float) -> float:
        """Illuminance [lux] at which the pixel saturates for ``exposure_s``."""
        check_positive("exposure_s", exposure_s)
        saturating_current = (
            self.design.reset_voltage_v * self.design.pd_capacitance_f / exposure_s
        )
        photo = saturating_current - self.design.dark_current_a
        return max(photo, 0.0) / self.design.photocurrent_per_lux_a
