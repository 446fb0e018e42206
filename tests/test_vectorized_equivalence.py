"""Scalar-vs-batched bit-identity of the weight-programming hot path.

The vectorized chain (array ``detuning_for_transmission``, OPC crosstalk
priced once per (ring position, AWC cell) pair, ndarray ``mapping_cost``,
batched tuning budget) must produce **exactly** the floats the original
scalar loops produced — no tolerance, and the ``program()`` oracles
compare bytes, signed zeros included.  The scalar loops are retained
verbatim in :mod:`repro.core.reference`; every test here pits the live
implementation against that reference, over random inputs and the zoo's
full-size 64x784 MLP layer, including the edge lanes (T exactly 1.0 parks
the ring, T_min sits on the range floor, zero weights, ragged last arms,
calibrated dies, EO-only vs TO+EO shifts).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import reference
from repro.core.calibration import CalibratedAwcMapper
from repro.core.config import OISAConfig
from repro.core.opc import OpticalProcessingCore
from repro.core.pipeline import kernel_set
from repro.engine.workloads import ModelSpec
from repro.nn.quant import QuantDense, UniformWeightQuantizer
from repro.photonics.microring import MicroringResonator
from repro.photonics.tuning import HybridTuning
from repro.photonics.wdm import (
    WdmGrid,
    crosstalk_matrix,
    effective_arm_transmission,
)
from repro.util.rng import spawn_seeds

RING = MicroringResonator()
GRID = WdmGrid()


def _random_transmissions(rng, shape):
    t_min = RING.min_transmission
    values = rng.uniform(t_min, 1.0, size=shape)
    # Sprinkle in the edges: exact floor and exact parking target.
    flat = values.reshape(-1)
    if flat.size >= 2:
        flat[0] = t_min
        flat[1] = 1.0
    return values


# --------------------------------------------------------------------------
# detuning_for_transmission
# --------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_detuning_array_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    targets = _random_transmissions(rng, (257,))
    batched = RING.detuning_for_transmission(targets)
    scalar = np.array(
        [
            reference.detuning_for_transmission_scalar(RING, float(t))
            for t in targets
        ]
    )
    np.testing.assert_array_equal(batched, scalar)


def test_detuning_scalar_input_returns_float():
    target = 0.5 * (RING.min_transmission + 1.0)
    result = RING.detuning_for_transmission(target)
    assert isinstance(result, float)
    assert result == reference.detuning_for_transmission_scalar(RING, target)


def test_detuning_parked_branch():
    assert RING.detuning_for_transmission(1.0) == 0.5 * RING.fsr_m
    parked = RING.detuning_for_transmission(np.array([1.0, 1.0]))
    np.testing.assert_array_equal(parked, np.full(2, 0.5 * RING.fsr_m))


def test_detuning_range_checks_preserved():
    with pytest.raises(ValueError):
        RING.detuning_for_transmission(RING.min_transmission / 2.0)
    with pytest.raises(ValueError):
        RING.detuning_for_transmission(1.5)
    good = 0.9
    with pytest.raises(ValueError):
        RING.detuning_for_transmission(np.array([good, 1.5]))
    with pytest.raises(ValueError):
        RING.detuning_for_transmission(
            np.array([good, RING.min_transmission / 2.0])
        )


def test_detuning_rejects_nan_like_scalar():
    # The scalar chained comparison raised on NaN; the batched check must
    # not let NaN slide through into the tuning budgets.
    with pytest.raises(ValueError):
        RING.detuning_for_transmission(float("nan"))
    with pytest.raises(ValueError):
        RING.detuning_for_transmission(np.array([0.9, float("nan")]))


def test_detuning_preserves_input_shape():
    rng = np.random.default_rng(3)
    targets = _random_transmissions(rng, (4, 5, 6))
    assert RING.detuning_for_transmission(targets).shape == (4, 5, 6)


# --------------------------------------------------------------------------
# crosstalk matrices
# --------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 5])
def test_crosstalk_matrix_weighted_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    weights = _random_transmissions(rng, (GRID.num_channels,))
    np.testing.assert_array_equal(
        crosstalk_matrix(GRID, ring=RING, weights=weights),
        reference.crosstalk_matrix_scalar(GRID, ring=RING, weights=weights),
    )


def test_crosstalk_matrix_unweighted_matches_scalar():
    np.testing.assert_array_equal(
        crosstalk_matrix(GRID, ring=RING),
        reference.crosstalk_matrix_scalar(GRID, ring=RING),
    )


def test_effective_arm_transmission_matches_per_arm_loop():
    rng = np.random.default_rng(9)
    weights = _random_transmissions(rng, (23, GRID.num_channels))
    for arm in weights:
        np.testing.assert_array_equal(
            effective_arm_transmission(GRID, arm, ring=RING),
            reference.effective_arm_transmission_scalar(GRID, arm, ring=RING),
        )


# --------------------------------------------------------------------------
# mapping_cost
# --------------------------------------------------------------------------
@given(
    shifts=st.lists(
        st.floats(
            min_value=-2e-9, max_value=2e-9, allow_nan=False, allow_infinity=False
        ),
        min_size=0,
        max_size=64,
    )
)
@settings(max_examples=80, deadline=None)
def test_mapping_cost_ndarray_matches_scalar(shifts):
    tuner = HybridTuning()
    batched = tuner.mapping_cost(np.asarray(shifts))
    scalar = reference.mapping_cost_scalar(tuner, shifts)
    assert batched.energy_j == scalar.energy_j
    assert batched.latency_s == scalar.latency_s
    assert batched.holding_power_w == scalar.holding_power_w


@given(
    shifts=st.lists(
        st.one_of(
            st.just(0.0),
            st.floats(
                min_value=-2e-9,
                max_value=2e-9,
                allow_nan=False,
                allow_infinity=False,
            ),
        ),
        min_size=1,
        max_size=64,
    ),
    eo_range_m=st.floats(min_value=1e-13, max_value=1e-9),
    to_settle_time_s=st.floats(min_value=1e-10, max_value=1e-5),
    eo_settle_time_s=st.floats(min_value=1e-10, max_value=1e-5),
    eo_energy_per_shift_j=st.sampled_from([0.0, 18e-15, 3e-12]),
    eo_holding_power_w=st.sampled_from([0.0, 1e-6, 2.5e-3]),
)
@settings(max_examples=80, deadline=None)
def test_mapping_cost_matches_scalar_for_any_tuner(shifts, **tuner_settings):
    """The in-place aggregate stays exact off the default tuner: an EO
    settle slower than the heater's, free EO shifts, EO holding power."""
    tuner = HybridTuning(**tuner_settings)
    batched = tuner.mapping_cost(np.asarray(shifts))
    assert batched == reference.mapping_cost_scalar(tuner, shifts)


def test_mapping_cost_edge_shifts():
    tuner = HybridTuning()
    # Zero, EO-only (inside the 50 pm range), exactly at range, TO+EO.
    shifts = [0.0, 1e-12, -1e-12, tuner.eo_range_m, -tuner.eo_range_m, 1e-9, -1e-9]
    batched = tuner.mapping_cost(np.asarray(shifts))
    scalar = reference.mapping_cost_scalar(tuner, shifts)
    assert batched == scalar


def test_mapping_cost_still_accepts_lists():
    tuner = HybridTuning()
    shifts = [1e-10, 5e-10]
    assert tuner.mapping_cost(shifts) == reference.mapping_cost_scalar(
        tuner, shifts
    )
    assert tuner.mapping_cost([]).energy_j == 0.0


# --------------------------------------------------------------------------
# Full OPC program chain
# --------------------------------------------------------------------------
def _program_pair(shape, bits, seed, enable_crosstalk=True):
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=shape) * 0.1
    quantizer = UniformWeightQuantizer(bits)
    quantized = quantizer.quantize(weights)
    scale = quantizer.scale(weights)
    opc = OpticalProcessingCore(
        seed=seed, enable_crosstalk=enable_crosstalk, enable_read_noise=False
    )
    return opc.program(quantized, scale), reference.program_scalar(
        opc, quantized, scale
    )


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_program_conv_bit_identical_all_bit_widths(bits):
    programmed, scalar = _program_pair((8, 3, 3, 3), bits, seed=bits)
    np.testing.assert_array_equal(programmed.realized, scalar.realized)
    np.testing.assert_array_equal(programmed.ideal, scalar.ideal)
    assert programmed.tuning == scalar.tuning


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_program_dense_bit_identical_all_bit_widths(bits):
    programmed, scalar = _program_pair((16, 100), bits, seed=10 + bits)
    np.testing.assert_array_equal(programmed.realized, scalar.realized)
    assert programmed.tuning == scalar.tuning


def test_program_bit_identical_without_crosstalk():
    programmed, scalar = _program_pair(
        (4, 3, 3, 3), 4, seed=42, enable_crosstalk=False
    )
    np.testing.assert_array_equal(programmed.realized, scalar.realized)
    assert programmed.tuning == scalar.tuning


def test_program_ragged_arm_padding_bit_identical():
    # 75 weights do not tile the 10-MR arms evenly; the padded tail lanes
    # must still match the scalar loop.
    programmed, scalar = _program_pair((3, 1, 5, 5), 4, seed=21)
    np.testing.assert_array_equal(programmed.realized, scalar.realized)
    assert programmed.tuning == scalar.tuning


def test_weight_transform_uses_shared_realize_chain():
    rng = np.random.default_rng(33)
    weights = rng.normal(size=(4, 3, 3, 3)) * 0.1
    quantizer = UniformWeightQuantizer(4)
    quantized = quantizer.quantize(weights)
    scale = quantizer.scale(weights)
    opc = OpticalProcessingCore(seed=33, enable_read_noise=False)
    realized_hook = opc.weight_transform(scale_hint=scale)(quantized)
    scalar = reference.program_scalar(opc, quantized, scale)
    np.testing.assert_array_equal(realized_hook, scalar.realized)


# --------------------------------------------------------------------------
# Crosstalk priced per (ring position, AWC cell) pair
# --------------------------------------------------------------------------
def _assert_matches_scalar_program(opc, quantized, scale):
    """``program()`` equals the scalar reference byte for byte (signed
    zeros included) and in its tuning budget."""
    programmed = opc.program(quantized, scale)
    scalar = reference.program_scalar(opc, quantized, scale)
    assert programmed.realized.shape == scalar.realized.shape
    assert programmed.realized.tobytes() == scalar.realized.tobytes()
    assert programmed.tuning == scalar.tuning
    return programmed


def _zoo_mlp_layer(bits):
    model = ModelSpec("mlp", bits).build(0)
    return kernel_set(next(l for l in model if isinstance(l, QuantDense)))


@pytest.mark.parametrize("arms", [1, 7, 40])
def test_program_crosstalk_matches_per_arm_loop(arms):
    # One dense row per arm; every arm holds a zero code (a T_min ring)
    # and the layer's largest weight sits on a parked (T = 1.0) ring.
    rng = np.random.default_rng(arms)
    codes = rng.integers(-15, 16, size=(arms, GRID.num_channels))
    codes[:, 0] = 0
    scale = 0.01
    opc = OpticalProcessingCore(seed=arms, enable_read_noise=False)
    _assert_matches_scalar_program(opc, codes * scale, scale)


def test_program_rejects_wrong_channel_count():
    config = OISAConfig(wdm=WdmGrid(num_channels=GRID.num_channels + 1))
    opc = OpticalProcessingCore(config, seed=0, enable_read_noise=False)
    with pytest.raises(ValueError, match="channel"):
        opc.program(np.full((4, config.mrs_per_arm), 0.01), 0.01)


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_zoo_mlp_first_layer_matches_scalar_program(bits):
    # The 64x784 layer: 5018 arms over at most 10 x 640 (position, cell)
    # pairs, on the die a 4-node server gives its second node.
    kernels = _zoo_mlp_layer(bits)
    opc = OpticalProcessingCore(seed=spawn_seeds(0, 4)[1], enable_read_noise=False)
    _assert_matches_scalar_program(opc, kernels.weights, kernels.scale)


def test_calibrated_noisy_die_matches_scalar_program():
    kernels = _zoo_mlp_layer(4)
    opc = OpticalProcessingCore(seed=spawn_seeds(0, 4)[1], enable_read_noise=False)
    raw = opc.program(kernels.weights, kernels.scale).realized
    opc.awc = CalibratedAwcMapper(opc.awc, measurement_noise_lsb=0.5, seed=7)
    calibrated = _assert_matches_scalar_program(
        opc, kernels.weights, kernels.scale
    )
    # The pre-distortion moved codes onto other cells.
    assert not np.array_equal(calibrated.realized, raw)


@pytest.mark.parametrize("scale_hint", [True, False])
def test_weight_transform_on_dense_layer_matches_scalar_program(scale_hint):
    rng = np.random.default_rng(44)
    weights = rng.normal(size=(32, 300)) * 0.1
    quantizer = UniformWeightQuantizer(3)
    quantized = quantizer.quantize(weights)
    opc = OpticalProcessingCore(seed=44, enable_read_noise=False)
    if scale_hint:
        scale = quantizer.scale(weights)
        realized = opc.weight_transform(scale_hint=scale)(quantized)
    else:
        # The hook's own scale: max |w| over the top AWC level.
        scale = float(np.max(np.abs(quantized))) / (opc.awc.num_levels - 1)
        realized = opc.weight_transform()(quantized)
    scalar = reference.program_scalar(opc, quantized, scale)
    assert realized.tobytes() == scalar.realized.tobytes()


def test_ragged_arm_with_repeated_cells_matches_scalar_program():
    # Three AWC units against 10-MR arms: one cell recurs at several
    # positions and in several arms; 91 weights leave a ragged last arm.
    config = OISAConfig(num_awc_units=3)
    opc = OpticalProcessingCore(config, seed=5, enable_read_noise=False)
    rng = np.random.default_rng(5)
    codes = rng.choice([-7, -3, 0, 3, 7], size=(7, 13))
    scale = 0.02
    quantized = codes * scale
    cells, _ = opc.awc.code_cells(codes)
    flat_cells = cells.reshape(-1)
    lanes = np.arange(flat_cells.size)
    repeated = flat_cells == flat_cells[np.argmax(np.abs(codes.reshape(-1)))]
    assert len(set(lanes[repeated] % config.mrs_per_arm)) > 1
    assert len(set(lanes[repeated] // config.mrs_per_arm)) > 1
    assert codes.size % config.mrs_per_arm != 0

    awc = np.abs(opc.awc.realize_quantized_weights(quantized, scale))
    t_min = opc.ring.min_transmission
    targets = t_min + (awc / awc.max()) * (1.0 - t_min)
    assert np.count_nonzero(targets == 1.0) > 1  # parked rings
    assert np.count_nonzero(targets == t_min) > 1  # zero codes
    _assert_matches_scalar_program(opc, quantized, scale)
