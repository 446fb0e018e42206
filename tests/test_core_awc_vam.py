"""Tests for repro.core.awc and repro.core.vam — architecture-level views."""

import numpy as np
import pytest

from repro.circuits.awc import AwcCircuit, AwcDesign
from repro.core.awc import AwcWeightMapper
from repro.core.vam import ActivationModulator
from repro.util.rng import spawn_seeds


# --------------------------------------------------------------------------
# AwcWeightMapper
# --------------------------------------------------------------------------
def test_level_table_shape():
    mapper = AwcWeightMapper(num_units=40, seed=0)
    assert mapper.level_table.shape == (40, 16)
    assert mapper.num_levels == 16


def test_units_have_distinct_mismatch():
    mapper = AwcWeightMapper(num_units=4, seed=0)
    table = mapper.level_table
    assert not np.allclose(table[0], table[1])


def test_realize_codes_sign_symmetric():
    mapper = AwcWeightMapper(num_units=2, seed=1)
    codes = np.array([3, -3])
    units = np.array([0, 0])
    realized = mapper.realize_codes(codes, units)
    assert realized[0] == pytest.approx(-realized[1])


def test_realize_zero_code_exact():
    mapper = AwcWeightMapper(num_units=2, seed=1)
    realized = mapper.realize_codes(np.zeros(4, dtype=int))
    np.testing.assert_allclose(realized, 0.0)


def test_realized_levels_near_ideal():
    mapper = AwcWeightMapper(num_units=40, seed=2)
    codes = np.arange(16)
    realized = mapper.realize_codes(codes, np.zeros(16, dtype=int))
    assert np.max(np.abs(realized - codes)) < 1.5  # within ~1.5 LSB


def test_realize_quantized_weights_roundtrip_scale():
    mapper = AwcWeightMapper(num_units=40, seed=3)
    scale = 0.01
    quantized = np.array([0.0, 0.05, -0.15, 0.1])
    realized = mapper.realize_quantized_weights(quantized, scale)
    # Same sign pattern, same order of magnitude.
    np.testing.assert_array_equal(np.sign(realized), np.sign(quantized))
    assert np.abs(realized - quantized).max() < 3 * scale


def test_code_out_of_range_rejected():
    mapper = AwcWeightMapper(num_units=2, seed=0)
    with pytest.raises(ValueError):
        mapper.realize_codes(np.array([16]))


def _reference_table(design: AwcDesign, seed) -> np.ndarray:
    """The level table as built per mapper: one ladder per unit seed."""
    circuits = [AwcCircuit(design, seed=s) for s in spawn_seeds(seed, 40)]
    levels = np.stack([circuit.all_levels_a() for circuit in circuits])
    return levels / design.unit_current_a


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [None, 0, 2**63 + 5])
def test_shared_level_table_matches_per_unit_ladders(bits, seed):
    design = AwcDesign(num_bits=bits)
    table = AwcWeightMapper(design, num_units=40, seed=seed).level_table
    assert table.tobytes() == _reference_table(design, seed).tobytes()


def test_mappers_on_one_die_share_one_read_only_table():
    first = AwcWeightMapper(num_units=40, seed=11)
    second = AwcWeightMapper(num_units=40, seed=11)
    assert first.level_table is second.level_table
    assert not first.level_table.flags.writeable
    with pytest.raises(ValueError):
        first.level_table[0, 1] = 99.0
    other_die = AwcWeightMapper(num_units=40, seed=12)
    assert other_die.level_table is not first.level_table


def test_calibration_and_faults_leave_the_shared_table_intact():
    from repro.core.calibration import CalibratedAwcMapper
    from repro.core.opc import OpticalProcessingCore
    from repro.sim.faults import FaultSpec, FaultyOpticalCore

    seed = 23
    core = OpticalProcessingCore(seed=seed)  # the die's own 40-unit bank
    CalibratedAwcMapper(
        core.awc, measurement_noise_lsb=0.2, seed=seed
    ).realize_codes(np.arange(-15, 16))
    faulty = FaultyOpticalCore(
        core, FaultSpec(dead_mr_rate=0.2, stuck_awc_branch_rate=0.3), seed=seed
    )
    weights = np.random.default_rng(0).integers(-7, 8, (4, 1, 3, 3)) * 0.01
    faulty.program(weights, 0.01)
    fresh = AwcWeightMapper(core.awc.design, num_units=40, seed=seed)
    reference = _reference_table(core.awc.design, seed)
    assert fresh.level_table.tobytes() == reference.tobytes()


def test_unit_assignment_validation():
    mapper = AwcWeightMapper(num_units=2, seed=0)
    with pytest.raises(ValueError):
        mapper.realize_codes(np.array([1, 2]), np.array([0]))
    with pytest.raises(ValueError):
        mapper.realize_codes(np.array([1]), np.array([5]))


@pytest.mark.parametrize("explicit_units", [False, True])
def test_code_cells_read_the_level_table(explicit_units):
    mapper = AwcWeightMapper(num_units=7, seed=6)
    rng = np.random.default_rng(6)
    codes = rng.integers(-15, 16, size=(9, 11))
    units = (
        rng.integers(0, 7, size=codes.shape)
        if explicit_units
        else (np.arange(codes.size) % 7).reshape(codes.shape)
    )
    cells, signs = mapper.code_cells(codes, units if explicit_units else None)
    table = mapper.level_table
    np.testing.assert_array_equal(cells, units * mapper.num_levels + np.abs(codes))
    np.testing.assert_array_equal(signs, np.sign(codes))
    # A sign of 0 (no rail) exactly on the zero-code cells.
    np.testing.assert_array_equal(signs == 0, cells % mapper.num_levels == 0)
    realized = mapper.realize_codes(codes, units if explicit_units else None)
    expected = np.sign(codes) * table[units, np.abs(codes)]
    assert realized.tobytes() == expected.tobytes()


def test_error_metrics_positive():
    mapper = AwcWeightMapper(num_units=40, seed=4)
    assert mapper.mean_level_error_lsb() > 0.0
    assert mapper.worst_case_level_error_lsb() >= mapper.mean_level_error_lsb()


def test_separability_degrades_with_bits():
    # The paper's Table II mechanism: level gaps shrink at high bit-widths.
    base = AwcWeightMapper(AwcDesign(num_bits=2), num_units=10, seed=5)
    fine = base.with_bits(4, seed=5)
    assert fine.level_separability() < base.level_separability()


def test_same_seed_same_chip():
    a = AwcWeightMapper(num_units=4, seed=6).level_table
    b = AwcWeightMapper(num_units=4, seed=6).level_table
    np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------------
# ActivationModulator
# --------------------------------------------------------------------------
def test_encode_thresholds():
    vam = ActivationModulator()
    frame = np.array([0.1, 0.5, 0.9])
    np.testing.assert_array_equal(vam.encode(frame), [0, 1, 2])


def test_encode_preserves_shape():
    vam = ActivationModulator()
    frame = np.random.default_rng(0).uniform(0, 1, (3, 16, 16))
    assert vam.encode(frame).shape == (3, 16, 16)


def test_optical_power_monotone():
    vam = ActivationModulator()
    powers = vam.optical_powers_w(np.array([0.1, 0.5, 0.9]))
    assert powers[0] < powers[1] < powers[2]


def test_symbol_distribution_sums_to_one():
    vam = ActivationModulator()
    frame = np.random.default_rng(1).uniform(0, 1, (64, 64))
    distribution = vam.symbol_distribution(frame)
    assert distribution.sum() == pytest.approx(1.0)
    # Uniform input, thirds thresholds -> roughly equal symbol mix.
    np.testing.assert_allclose(distribution, 1 / 3, atol=0.05)


def test_frame_energy_scales_with_pixels():
    vam = ActivationModulator()
    small = vam.frame_energy_j(np.full((8, 8), 0.5), 1e-6)
    large = vam.frame_energy_j(np.full((16, 16), 0.5), 1e-6)
    assert large == pytest.approx(4 * small)


def test_brighter_frames_cost_more():
    vam = ActivationModulator()
    dark = vam.frame_energy_j(np.full((8, 8), 0.1), 1e-6)
    bright = vam.frame_energy_j(np.full((8, 8), 0.9), 1e-6)
    assert bright > dark  # higher symbols -> higher VCSEL currents


def test_average_power_definition():
    vam = ActivationModulator()
    frame = np.full((8, 8), 0.5)
    power = vam.average_power_w(frame, 1000.0)
    assert power == pytest.approx(vam.frame_energy_j(frame, 1e-3) * 1000.0)


def test_threshold_validation():
    with pytest.raises(ValueError):
        ActivationModulator(low_threshold=0.7, high_threshold=0.3)
