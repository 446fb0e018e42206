"""Read-out oracle for the optical cores' ``dot``/``convolve``.

Every output of :class:`~repro.core.opc.OpticalProcessingCore` and
:class:`~repro.sim.faults.FaultyOpticalCore` must equal the read-out
formula written out below, evaluated on a same-seed twin core: the ideal
product with the (masked) realized weights plus
``rng.normal(0.0, sigma, shape)``, where ``sigma`` is the BPD read-noise
fraction times the arm's full-scale MAC (``macs_per_arm * max|w|``) times
the square root of the arm reads that sum into one output.  Both cores
alternate two kernel sets, so a read-out scale that outlived its weights
would show, and both read-noise generators must end in the same state.
"""

import numpy as np
import pytest

from repro.core.opc import OpticalProcessingCore
from repro.nn.functional import conv2d_forward
from repro.nn.quant import UniformWeightQuantizer
from repro.sim.faults import FaultSpec, FaultyOpticalCore

#: mode -> (kernel set A shape, kernel set B shape, (stride, padding))
KERNEL_SETS = {
    "dense": ((16, 40), (12, 40), None),
    "conv": ((4, 3, 3, 3), (6, 3, 5, 5), (1, 1)),
}


def _kernel_set(shape, seed):
    weights = np.random.default_rng(seed).normal(size=shape) * 0.1
    quantizer = UniformWeightQuantizer(4)
    return quantizer.quantize(weights), quantizer.scale(weights)


def _activations(mode, seed, batch=3):
    """Ternary VAM levels {0, 0.5, 1}."""
    shape = (batch, 40) if mode == "dense" else (batch, 3, 7, 7)
    return np.random.default_rng(seed).integers(0, 3, shape) / 2.0


def _sigma(config, weights):
    full_scale = float(np.max(np.abs(weights)))
    arm_full_scale = config.macs_per_arm * full_scale
    if weights.ndim == 4:
        arms_per_plane = -(
            -weights.shape[2] * weights.shape[3] // config.mrs_per_arm
        )
        arm_reads = weights.shape[1] * arms_per_plane
    else:
        arm_reads = max(1, -(-weights.shape[1] // config.mrs_per_bank))
    return config.bpd_read_noise_fraction * arm_full_scale * np.sqrt(arm_reads)


def _product(mode, activations, weights):
    if mode == "dense":
        return activations @ weights.T
    stride, padding = KERNEL_SETS[mode][2]
    return conv2d_forward(activations, weights, None, stride, padding)[0]


def _run(mode, core, activations):
    if mode == "dense":
        return core.dot(activations)
    stride, padding = KERNEL_SETS[mode][2]
    return core.convolve(activations, stride=stride, padding=padding)


@pytest.mark.parametrize("mode", sorted(KERNEL_SETS))
def test_healthy_readout_matches_formula_across_kernel_swaps(mode):
    shape_a, shape_b, _ = KERNEL_SETS[mode]
    sets = {"a": _kernel_set(shape_a, 1), "b": _kernel_set(shape_b, 2)}
    core = OpticalProcessingCore(seed=7)
    twin = OpticalProcessingCore(seed=7)
    records = {name: core.program(*sets[name]) for name in ("a", "b")}
    expected_weights = {
        name: twin.program(*sets[name]).realized for name in ("a", "b")
    }
    rng = twin._read_rng  # the twin never reads out: its stream is unused
    for step, name in enumerate(("b", "a", "b", "a", "a")):
        core.install(records[name])
        activations = _activations(mode, seed=10 + step)
        weights = expected_weights[name]
        values = _product(mode, activations, weights)
        sigma = _sigma(twin.config, weights)
        expected = values + rng.normal(0.0, sigma, size=values.shape)
        np.testing.assert_array_equal(_run(mode, core, activations), expected)
    assert core._read_rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("mode", sorted(KERNEL_SETS))
def test_faulty_readout_matches_formula_across_kernel_swaps(mode):
    """Sigma comes from the masked weights the faulty core passes."""
    shape_a, _, _ = KERNEL_SETS[mode]
    # Same shape for both sets, so one frozen fault pattern fits either.
    sets = {"a": _kernel_set(shape_a, 1), "b": _kernel_set(shape_a, 2)}
    spec = FaultSpec(dead_mr_rate=0.3, dead_vcsel_rate=0.2, bpd_gain_sigma=0.15)
    core = OpticalProcessingCore(seed=7)
    faulty = FaultyOpticalCore(core, spec, seed=5)
    twin = OpticalProcessingCore(seed=7)
    twin_faulty = FaultyOpticalCore(twin, spec, seed=5)
    records = {name: faulty.program(*sets[name]) for name in ("a", "b")}
    expected_weights = {
        name: twin_faulty.program(*sets[name]).realized for name in ("a", "b")
    }
    weight_mask = twin_faulty._weight_mask
    channels = twin_faulty._channel_mask
    gain = twin_faulty._output_gain
    if mode == "dense":
        channels, gain = channels[None, :], gain[None, :]
    else:
        channels = channels[None, :, None, None]
        gain = gain[None, :, None, None]
    rng = twin._read_rng
    for step, name in enumerate(("b", "a", "b", "a", "a")):
        core.install(records[name])
        activations = _activations(mode, seed=20 + step)
        masked = expected_weights[name] * weight_mask
        values = _product(mode, activations * channels, masked)
        sigma = _sigma(twin.config, masked)
        expected = (values + rng.normal(0.0, sigma, size=values.shape)) * gain
        np.testing.assert_array_equal(_run(mode, faulty, activations), expected)
    assert core._read_rng.bit_generator.state == rng.bit_generator.state
