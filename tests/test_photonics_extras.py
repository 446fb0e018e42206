"""Tests for the microring add-drop port extension."""

import numpy as np
import pytest

from repro.photonics.microring import MicroringResonator


# --------------------------------------------------------------------------
# Drop port
# --------------------------------------------------------------------------
def test_drop_peaks_on_resonance():
    ring = MicroringResonator()
    on_res = float(ring.drop_transmission(ring.design.resonance_wavelength_m))
    off_res = float(
        ring.drop_transmission(ring.design.resonance_wavelength_m + 2e-9)
    )
    assert on_res > 10 * off_res


def test_drop_complements_through():
    # Where the through port dips, the drop port peaks (energy routed).
    ring = MicroringResonator()
    wavelengths = np.linspace(1549e-9, 1551e-9, 801)
    through = ring.through_transmission(wavelengths)
    drop = ring.drop_transmission(wavelengths)
    assert wavelengths[np.argmin(through)] == pytest.approx(
        wavelengths[np.argmax(drop)], abs=2 * (wavelengths[1] - wavelengths[0])
    )


def test_drop_bounded_and_validated():
    ring = MicroringResonator()
    wavelengths = np.linspace(1545e-9, 1555e-9, 501)
    drop = ring.drop_transmission(wavelengths)
    assert np.all(drop >= 0.0) and np.all(drop <= 1.0)
    with pytest.raises(ValueError):
        ring.drop_transmission(1550e-9, drop_coupling=1.5)


def test_weaker_drop_coupling_lower_peak():
    ring = MicroringResonator()
    lam = ring.design.resonance_wavelength_m
    strong = float(ring.drop_transmission(lam, drop_coupling=0.95))
    weak = float(ring.drop_transmission(lam, drop_coupling=0.999))
    assert weak < strong

