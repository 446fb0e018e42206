"""Silicon-photonics device substrate for OISA.

This package replaces the paper's Lumerical device work with closed-form
coupled-mode-theory models.  It provides everything the architecture layer
consumes:

* :mod:`repro.photonics.microring` — all-pass microring resonator (MR)
  transmission, Q-factor, FWHM, free spectral range and resonance tuning.
* :mod:`repro.photonics.wdm` — wavelength grids and the inter-channel
  crosstalk matrix of an arm of MRs.
* :mod:`repro.photonics.vcsel` — VCSEL L-I behaviour and the ternary
  non-return-to-zero bias scheme used by the activation modulator.
* :mod:`repro.photonics.photodiode` — photodiode / balanced-photodiode
  readout with shot and thermal noise.
* :mod:`repro.photonics.waveguide` — loss budget along an arm.
* :mod:`repro.photonics.tuning` — thermo-optic / electro-optic hybrid tuning
  power and latency.

The noise the optics inject is drawn where it arises: the optical
processing core (:mod:`repro.core.opc`) draws its own crosstalk and
balanced-photodiode read noise.
"""

from repro.photonics.microring import MicroringDesign, MicroringResonator
from repro.photonics.photodiode import BalancedPhotodiode, Photodiode
from repro.photonics.tuning import HybridTuning, TuningBudget
from repro.photonics.vcsel import TernaryVcselEncoder, Vcsel
from repro.photonics.waveguide import ArmLossBudget, Waveguide
from repro.photonics.wdm import (
    WdmGrid,
    crosstalk_matrix,
    effective_arm_transmission,
)

__all__ = [
    "ArmLossBudget",
    "BalancedPhotodiode",
    "HybridTuning",
    "MicroringDesign",
    "MicroringResonator",
    "Photodiode",
    "TernaryVcselEncoder",
    "TuningBudget",
    "Vcsel",
    "Waveguide",
    "WdmGrid",
    "crosstalk_matrix",
    "effective_arm_transmission",
]
