"""Tests for repro.core.calibration — AWC code pre-distortion."""

import numpy as np
import pytest

from repro.circuits.awc import AwcDesign
from repro.core.awc import AwcWeightMapper
from repro.core.calibration import CalibratedAwcMapper
from repro.util.rng import derive_rng


@pytest.fixture
def noisy_mapper():
    design = AwcDesign(num_bits=4, mismatch_sigma=0.06, offset_sigma_a=6e-6)
    return AwcWeightMapper(design, num_units=10, seed=0)


def test_calibration_reduces_level_error(noisy_mapper):
    calibrated = CalibratedAwcMapper(noisy_mapper)
    assert calibrated.residual_error_lsb() <= noisy_mapper.mean_level_error_lsb()
    assert calibrated.improvement_ratio() >= 1.0


def test_calibration_no_op_on_ideal_converter():
    design = AwcDesign(mismatch_sigma=0.0, offset_sigma_a=0.0, compression_alpha=0.0)
    mapper = AwcWeightMapper(design, num_units=4, seed=0)
    calibrated = CalibratedAwcMapper(mapper)
    codes = np.arange(-15, 16)
    units = np.zeros_like(codes)
    np.testing.assert_allclose(
        calibrated.realize_codes(codes, units),
        mapper.realize_codes(codes, units),
    )


def test_predistortion_preserves_sign(noisy_mapper):
    calibrated = CalibratedAwcMapper(noisy_mapper)
    codes = np.array([-7, -1, 0, 1, 7])
    units = np.zeros_like(codes)
    realized = calibrated.realize_codes(codes, units)
    assert np.all(np.sign(realized) == np.sign(codes))


def test_zero_code_stays_zero(noisy_mapper):
    calibrated = CalibratedAwcMapper(noisy_mapper)
    realized = calibrated.realize_codes(np.zeros(5, dtype=int))
    np.testing.assert_allclose(realized, 0.0)


def test_calibrated_weights_closer_than_raw(noisy_mapper):
    rng = np.random.default_rng(1)
    weights = rng.normal(size=(8, 3, 3, 3)) * 0.1
    from repro.nn.quant import UniformWeightQuantizer

    quantizer = UniformWeightQuantizer(4)
    quantized = quantizer.quantize(weights)
    scale = quantizer.scale(weights)
    raw = noisy_mapper.realize_quantized_weights(quantized, scale)
    calibrated = CalibratedAwcMapper(noisy_mapper).realize_quantized_weights(
        quantized, scale
    )
    raw_err = np.sqrt(np.mean((raw - quantized) ** 2))
    cal_err = np.sqrt(np.mean((calibrated - quantized) ** 2))
    assert cal_err <= raw_err


def test_measurement_noise_limits_gain(noisy_mapper):
    perfect = CalibratedAwcMapper(noisy_mapper)
    noisy_bench = CalibratedAwcMapper(
        noisy_mapper, measurement_noise_lsb=1.0, seed=2
    )
    assert noisy_bench.residual_error_lsb() >= perfect.residual_error_lsb()


def test_negative_measurement_noise_rejected(noisy_mapper):
    with pytest.raises(ValueError):
        CalibratedAwcMapper(noisy_mapper, measurement_noise_lsb=-0.1)


@pytest.mark.parametrize("noise", [0.0, 0.8])
def test_code_cells_follow_the_predistortion(noisy_mapper, noise):
    """Each code reads the cell of the code whose *measured* level lands
    closest to it; a zero code, or one whose substitute is zero, reads
    its unit's zero cell and loses its rail."""
    calibrated = CalibratedAwcMapper(
        noisy_mapper, measurement_noise_lsb=noise, seed=3
    )
    measured = noisy_mapper.level_table.copy()
    if noise:
        measured = measured + derive_rng(3, "awc-calibration-noise").normal(
            0.0, noise, size=measured.shape
        )
    levels = noisy_mapper.num_levels
    rng = np.random.default_rng(8)
    codes = rng.integers(-(levels - 1), levels, size=400)
    units = rng.integers(0, noisy_mapper.num_units, size=codes.shape)
    substitute = np.abs(
        measured[units] - np.abs(codes)[:, None]
    ).argmin(axis=1)
    distorted = np.sign(codes) * substitute
    cells, signs = calibrated.code_cells(codes, units)
    np.testing.assert_array_equal(cells, units * levels + np.abs(distorted))
    np.testing.assert_array_equal(signs, np.sign(distorted))
    realized = calibrated.realize_codes(codes, units)
    expected = np.sign(distorted) * noisy_mapper.level_table[
        units, np.abs(distorted)
    ]
    assert realized.tobytes() == expected.tobytes()
    if noise:
        assert np.any(distorted != codes)
