"""Wavelength-division multiplexing grid and inter-channel crosstalk.

Inside an OISA arm, each of the (up to) 10 MRs is tuned near a distinct
wavelength channel.  Because MR resonances have Lorentzian tails, the MR
assigned to channel *j* also slightly attenuates the light of channel *i*;
the product of those parasitic attenuations is the arm's crosstalk error.
``crosstalk_matrix`` captures exactly that: entry ``(i, j)`` is the power
transmission channel *i* experiences from the ring serving channel *j*,
and ``effective_arm_transmission`` multiplies each row over *j* in order.

Column *j* depends only on ring *j*'s position and its own target
transmission.  When the OPC maps a kernel set (Section III, weight
mapping) its targets come from a few hundred AWC levels, so
:meth:`repro.core.opc.OpticalProcessingCore.program` evaluates each
column once per (position, AWC cell) pair that occurs and multiplies the
gathered columns in the same *j* order.  Its floats are bit-identical to
this module's one-arm functions and to the scalar loops of
:mod:`repro.core.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.photonics.microring import MicroringResonator
from repro.util.units import NM
from repro.util.validation import check_positive


@dataclass(frozen=True)
class WdmGrid:
    """A uniform wavelength grid centred on the MR design wavelength.

    The paper's arm holds 10 MRs; with a measured FSR of ~18 nm a channel
    spacing of 1.6 nm (≈200 GHz) keeps all channels within one FSR while
    leaving several FWHM (~0.31 nm at Q = 5000) between neighbours.
    """

    center_wavelength_m: float = 1550.0 * NM
    channel_spacing_m: float = 1.6 * NM
    num_channels: int = 10

    def __post_init__(self) -> None:
        check_positive("center_wavelength_m", self.center_wavelength_m)
        check_positive("channel_spacing_m", self.channel_spacing_m)
        if self.num_channels < 1:
            raise ValueError(f"num_channels must be >= 1, got {self.num_channels}")

    def wavelengths_m(self) -> np.ndarray:
        """Channel wavelengths [m], symmetric around the grid centre."""
        offsets = np.arange(self.num_channels) - (self.num_channels - 1) / 2.0
        return self.center_wavelength_m + offsets * self.channel_spacing_m

    def channel_detunings_m(self, channel: int) -> np.ndarray:
        """Detuning of every channel relative to ``channel`` [m]."""
        wavelengths = self.wavelengths_m()
        return wavelengths - wavelengths[channel]

    def span_m(self) -> float:
        """Total wavelength span of the grid [m]."""
        return (self.num_channels - 1) * self.channel_spacing_m


def crosstalk_matrix(
    grid: WdmGrid,
    ring: MicroringResonator | None = None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Power-transmission matrix ``X[i, j]`` of ring *j* seen by channel *i*.

    Parameters
    ----------
    grid:
        The wavelength grid; one ring per channel.
    ring:
        Prototype resonator used for every channel (the arm replicates one
        design).  Defaults to the paper's Q≈5000 device.
    weights:
        Optional per-ring target transmissions in ``[T_min, 1]``.  When
        given, ring *j* is detuned to realise ``weights[j]`` on its own
        channel, and its Lorentzian tail is evaluated on every other channel.
        When omitted all rings sit exactly on their channel (weight =
        ``T_min``).

    Returns
    -------
    numpy.ndarray
        ``(num_channels, num_channels)`` matrix; the diagonal holds each
        ring's own (weighted) transmission, off-diagonals the parasitic
        attenuation of neighbouring channels.
    """
    prototype = ring or MicroringResonator()
    n = grid.num_channels
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError(
                f"weights must have shape ({n},), got {weights.shape}"
            )
        shifts = np.asarray(prototype.detuning_for_transmission(weights))
    else:
        shifts = np.zeros(n)

    # Detuning of channel i from ring j's *tuned* resonance position.
    wavelengths = grid.wavelengths_m()
    detunings = wavelengths[:, None] - (wavelengths[None, :] + shifts[None, :])
    return prototype.lorentzian_transmission(detunings)


def effective_arm_transmission(
    grid: WdmGrid,
    weights: np.ndarray,
    ring: MicroringResonator | None = None,
) -> np.ndarray:
    """Per-channel transmission of a whole arm including crosstalk.

    Channel *i* is attenuated by *every* ring in the arm, so its effective
    weight is ``prod_j X[i, j]`` — the diagonal (intended weight) times the
    accumulated parasitic tails.  The architecture layer compares this
    against the ideal ``weights`` to quantify crosstalk-induced weight error.
    """
    matrix = crosstalk_matrix(grid, ring=ring, weights=np.asarray(weights, float))
    return matrix.prod(axis=1)
