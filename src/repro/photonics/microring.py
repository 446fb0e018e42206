"""All-pass microring resonator (MR) model.

The paper designs an MR with a 5 um radius and a 760 nm ring waveguide width
(Section III, "MR Device Engineering"), reporting a quality factor of roughly
5000 — deliberately *low* so that the resonance is broad enough to carry
multi-bit weights robustly.  Here we model the MR with standard coupled-mode
theory (Bogaerts et al., "Silicon microring resonators", Laser Photonics
Rev. 2012):

* through-port power transmission
  ``T(phi) = (a^2 - 2 r a cos(phi) + r^2) / (1 - 2 r a cos(phi) + (r a)^2)``
  with self-coupling ``r``, single-pass amplitude ``a`` and round-trip phase
  ``phi = 2 pi n_eff L / lambda``;
* free spectral range ``FSR = lambda^2 / (n_g L)``;
* full width at half maximum ``FWHM = (1 - r a) lambda^2 / (pi n_g L sqrt(r a))``;
* loaded quality factor ``Q = lambda / FWHM``.

Weights are imprinted by *detuning* the resonance relative to the carrier
wavelength: on resonance the carrier is maximally attenuated (weight ~ 0),
far off resonance it passes untouched (weight ~ 1).  The class exposes the
inverse map (`detuning_for_transmission`) the Approximate Weight Converter
uses to translate a target transmission into a tuning shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.util.units import UM, NM
from repro.util.validation import check_in_range, check_positive


@dataclass(frozen=True)
class MicroringDesign:
    """Geometric and material parameters of an all-pass MR.

    Defaults follow the paper: radius 5 um, ring waveguide width 760 nm, and
    a target loaded Q of ~5000 at 1550 nm.  ``n_eff``/``n_g`` are typical
    values for a 760 nm-wide silicon strip waveguide in the C-band.
    """

    radius_m: float = 5.0 * UM
    waveguide_width_m: float = 760.0 * NM
    n_eff: float = 2.36
    n_g: float = 4.20
    resonance_wavelength_m: float = 1550.0 * NM
    round_trip_loss_db: float = 0.25
    self_coupling: float = 0.9756

    def __post_init__(self) -> None:
        check_positive("radius_m", self.radius_m)
        check_positive("waveguide_width_m", self.waveguide_width_m)
        check_positive("n_eff", self.n_eff)
        check_positive("n_g", self.n_g)
        check_positive("resonance_wavelength_m", self.resonance_wavelength_m)
        check_in_range("self_coupling", self.self_coupling, 0.0, 1.0)

    @property
    def circumference_m(self) -> float:
        """Ring round-trip length [m]."""
        return 2.0 * math.pi * self.radius_m

    @property
    def single_pass_amplitude(self) -> float:
        """Round-trip field amplitude ``a`` from the round-trip power loss."""
        return 10.0 ** (-self.round_trip_loss_db / 20.0)


def solve_coupling_for_q(
    target_q: float,
    design: MicroringDesign | None = None,
    iterations: int = 60,
) -> float:
    """Find the self-coupling coefficient ``r`` that yields ``target_q``.

    Uses bisection on the monotone map r -> Q (for fixed loss ``a``); higher
    self-coupling (weaker bus coupling) gives a sharper resonance.
    """
    check_positive("target_q", target_q)
    base = design or MicroringDesign()
    a = base.single_pass_amplitude

    def loaded_q(r: float) -> float:
        ra = r * a
        lam = base.resonance_wavelength_m
        fwhm = (1.0 - ra) * lam**2 / (
            math.pi * base.n_g * base.circumference_m * math.sqrt(ra)
        )
        return lam / fwhm

    low, high = 1e-3, 1.0 - 1e-9
    if loaded_q(high) < target_q:
        raise ValueError(
            f"target Q {target_q:.0f} unreachable with round-trip loss "
            f"{base.round_trip_loss_db} dB (max {loaded_q(high):.0f})"
        )
    for _ in range(iterations):
        mid = 0.5 * (low + high)
        if loaded_q(mid) < target_q:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


class MicroringResonator:
    """Behavioral all-pass MR with resonance tuning.

    Parameters
    ----------
    design:
        Geometry/material description.  The default design lands at a loaded
        Q of roughly 5000, matching the paper.
    tuning_shift_m:
        Current resonance shift applied by the tuning circuit [m].  Positive
        shifts move the resonance to longer wavelengths.
    """

    def __init__(self, design: MicroringDesign | None = None) -> None:
        self._design = design = design or MicroringDesign()
        self.tuning_shift_m = 0.0
        # Snap the effective index to the nearest resonance order so the
        # declared resonance wavelength is an *exact* resonance (physically:
        # pick the longitudinal mode closest to the nominal n_eff).
        order = round(
            design.n_eff * design.circumference_m / design.resonance_wavelength_m
        )
        self._n_eff = (
            order * design.resonance_wavelength_m / design.circumference_m
        )
        # The spectral constants follow from the (frozen) design alone, so
        # they are derived once per ring, not on every weight solve.
        lam = design.resonance_wavelength_m
        r = design.self_coupling
        a = design.single_pass_amplitude
        ra = r * a
        self._fsr_m = lam**2 / (design.n_g * design.circumference_m)
        self._fwhm_m = (1.0 - ra) * lam**2 / (
            math.pi * design.n_g * design.circumference_m * math.sqrt(ra)
        )
        self._min_transmission = ((r - a) / (1.0 - r * a)) ** 2

    @property
    def design(self) -> MicroringDesign:
        """Geometry/material description (fixed for the ring's lifetime)."""
        return self._design

    # ------------------------------------------------------------------
    # Spectral quantities
    # ------------------------------------------------------------------
    @property
    def resonance_wavelength_m(self) -> float:
        """Current (tuned) resonance wavelength [m]."""
        return self.design.resonance_wavelength_m + self.tuning_shift_m

    @property
    def fsr_m(self) -> float:
        """Free spectral range [m]: ``lambda^2 / (n_g L)``."""
        return self._fsr_m

    @property
    def fwhm_m(self) -> float:
        """Full width at half maximum of the resonance dip [m]."""
        return self._fwhm_m

    @property
    def quality_factor(self) -> float:
        """Loaded quality factor ``Q = lambda / FWHM``."""
        return self.design.resonance_wavelength_m / self.fwhm_m

    @property
    def extinction_ratio(self) -> float:
        """On-resonance suppression ratio ``T_max / T_min`` (linear)."""
        t_min = self.min_transmission
        return float("inf") if t_min == 0.0 else 1.0 / t_min

    @property
    def min_transmission(self) -> float:
        """Through-port power transmission exactly on resonance."""
        return self._min_transmission

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def round_trip_phase(self, wavelength_m: np.ndarray | float) -> np.ndarray:
        """Round-trip phase at ``wavelength_m``, including the tuning shift.

        Tuning is modelled as an effective-index change that moves the
        resonance by ``tuning_shift_m``; equivalently the phase is evaluated
        at the *untuned* resonance grid shifted by the same amount.
        """
        wavelength = np.asarray(wavelength_m, dtype=float)
        effective = wavelength - self.tuning_shift_m
        return (
            2.0 * math.pi * self._n_eff * self.design.circumference_m / effective
        )

    def through_transmission(self, wavelength_m: np.ndarray | float) -> np.ndarray:
        """Through-port power transmission at ``wavelength_m`` (0..1)."""
        r = self.design.self_coupling
        a = self.design.single_pass_amplitude
        phi = self.round_trip_phase(wavelength_m)
        cos_phi = np.cos(phi)
        numerator = a**2 - 2.0 * r * a * cos_phi + r**2
        denominator = 1.0 - 2.0 * r * a * cos_phi + (r * a) ** 2
        return np.asarray(numerator / denominator)

    def drop_transmission(
        self,
        wavelength_m: np.ndarray | float,
        drop_coupling: float | None = None,
    ) -> np.ndarray:
        """Drop-port power transmission of the add-drop configuration.

        The OISA arm uses all-pass rings, but the evaluation framework also
        models add-drop devices (CrossLight-style banks route the dropped
        carrier to a monitor PD for weight locking).  ``drop_coupling``
        defaults to the through-side self-coupling (symmetric device).
        """
        r1 = self.design.self_coupling
        r2 = drop_coupling if drop_coupling is not None else r1
        if not (0.0 <= r2 <= 1.0):
            raise ValueError(f"drop_coupling must be in [0, 1], got {r2}")
        a = self.design.single_pass_amplitude
        phi = self.round_trip_phase(wavelength_m)
        k1_sq = 1.0 - r1**2
        k2_sq = 1.0 - r2**2
        denominator = 1.0 - 2.0 * r1 * r2 * a * np.cos(phi) + (r1 * r2 * a) ** 2
        return np.asarray(k1_sq * k2_sq * a / denominator)

    def lorentzian_transmission(
        self, detuning_m: np.ndarray | float
    ) -> np.ndarray:
        """Lorentzian approximation of the through dip near resonance.

        ``T(d) = 1 - (1 - T_min) / (1 + (2 d / FWHM)^2)`` — accurate within a
        few FWHM of resonance and invertible in closed form, which is what
        the weight-mapping path needs.
        """
        detuning = np.asarray(detuning_m, dtype=float)
        depth = 1.0 - self._min_transmission
        return 1.0 - depth / (1.0 + (2.0 * detuning / self._fwhm_m) ** 2)

    def detuning_for_transmission(
        self, transmission: np.ndarray | float
    ) -> np.ndarray | float:
        """Invert the Lorentzian: detuning [m] that yields ``transmission``.

        Accepts a scalar (returns ``float``) or an ndarray of any shape
        (returns an ndarray of the same shape) — the inversion is
        closed-form, so a whole kernel set's targets solve in one batched
        call.  Raises ``ValueError`` when any target lies below the
        on-resonance floor ``T_min`` (unreachable) or above 1; targets of
        exactly 1 park the ring half an FSR off resonance.
        """
        t_min = self._min_transmission
        values = np.asarray(transmission, dtype=float)
        # NaN must fail the check (as the scalar chained comparison did):
        # min and max propagate it, and a valid set needs no mask.
        if values.size and not (values.min() >= t_min and values.max() <= 1.0):
            valid = (values >= t_min) & (values <= 1.0)
            if values.ndim == 0:
                offender = transmission
            else:
                offender = float(values[~valid].flat[0])
            raise ValueError(
                f"transmission {offender!r} outside reachable range "
                f"[{t_min:.4f}, 1.0]"
            )
        parked = values >= 1.0
        # 0.5 FWHM sqrt(max((1 - T_min) / (1 - T) - 1, 0)), in one buffer.
        # A parked target reads as T = 0 so 1/(1-T) never divides by zero;
        # its lane is overwritten below.
        shifts = np.empty(values.shape)
        np.subtract(1.0, values, out=shifts)
        np.copyto(shifts, 1.0, where=parked)
        np.divide(1.0 - t_min, shifts, out=shifts)
        shifts -= 1.0
        np.maximum(shifts, 0.0, out=shifts)
        np.sqrt(shifts, out=shifts)
        shifts *= 0.5 * self._fwhm_m
        np.copyto(shifts, 0.5 * self._fsr_m, where=parked)
        if values.ndim == 0:
            return float(shifts)
        return shifts

    # ------------------------------------------------------------------
    # Weight encoding
    # ------------------------------------------------------------------
    def set_weight(self, weight: float) -> float:
        """Tune the MR so its carrier transmission equals ``weight``.

        ``weight`` must lie in ``[T_min, 1]``; the architecture layer maps
        quantized weight magnitudes into this interval.  Returns the applied
        resonance shift [m] so the tuning-power model can price it.
        """
        shift = self.detuning_for_transmission(weight)
        self.tuning_shift_m = shift
        return shift

    def carrier_transmission(self) -> float:
        """Transmission seen by a carrier parked at the untuned resonance."""
        return float(self.lorentzian_transmission(self.tuning_shift_m))
