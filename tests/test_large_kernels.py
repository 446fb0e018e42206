"""End-to-end coverage of the 5x5 and 7x7 kernel paths (bank-spanning)."""

import numpy as np
import pytest

from repro.core.accelerator import OISAAccelerator
from repro.core.config import OISAConfig
from repro.core.energy import OISAEnergyModel
from repro.core.mapping import ConvWorkload, plan_convolution
from repro.nn.functional import conv2d_forward
from repro.sim.platforms import get_platform


@pytest.mark.parametrize("kernel,expected_macs", [(5, 2000), (7, 3920)])
def test_large_kernel_programs_and_computes(kernel, expected_macs):
    oisa = OISAAccelerator(seed=0, enable_noise=False)
    rng = np.random.default_rng(kernel)
    weights = rng.normal(size=(8, 1, kernel, kernel)) * 0.1
    programmed = oisa.program_conv(weights, padding=kernel // 2)
    assert oisa.plan.macs_per_cycle == expected_macs
    assert oisa.plan.kernels_per_bank == 1
    assert oisa.plan.arms_per_kernel == 5

    frame = rng.uniform(0, 1, (1, 128, 128))
    result = oisa.process_frame(frame)
    assert result.features.shape == (8, 128, 128)
    # Noise disabled: features equal the realized-weight convolution.
    symbols = oisa.vam.encode(frame[None]).astype(float) / 2.0
    expected, _ = conv2d_forward(
        symbols, programmed.realized, None, 1, kernel // 2
    )
    np.testing.assert_allclose(result.features, expected[0], atol=1e-12)


def test_large_kernel_crosstalk_chunks_across_arms():
    # 25 weights span 3 arms of 10 MRs; crosstalk must chunk consistently.
    from repro.core.opc import OpticalProcessingCore
    from repro.nn.quant import UniformWeightQuantizer

    rng = np.random.default_rng(1)
    weights = rng.normal(size=(4, 1, 5, 5)) * 0.1
    quantizer = UniformWeightQuantizer(4)
    quantized = quantizer.quantize(weights)
    opc = OpticalProcessingCore(OISAConfig(), seed=2, enable_read_noise=False)
    programmed = opc.program(quantized, quantizer.scale(weights))
    assert programmed.realized.shape == weights.shape
    assert 0.0 < programmed.weight_error_relative < 0.1


@pytest.mark.parametrize("kernel", [5, 7])
def test_large_kernel_simulator_reports(kernel):
    workload = ConvWorkload(kernel, 16, 1, 64, 64, padding=kernel // 2)
    report = get_platform("oisa").simulate_conv(workload)
    plan = plan_convolution(OISAConfig(), workload)
    assert report.compute_cycles == plan.compute_cycles
    assert report.frame_energy_j > 0.0


def test_vom_energy_charged_for_bank_spanning_kernels():
    model = OISAEnergyModel(OISAConfig())
    small = plan_convolution(OISAConfig(), ConvWorkload(3, 8, 1, 64, 64, padding=1))
    large = plan_convolution(OISAConfig(), ConvWorkload(5, 8, 1, 64, 64, padding=2))
    small_energy = model.frame_energy_j(small)
    large_energy = model.frame_energy_j(large)
    # Per output, the 5x5 kernel needs 5-arm combining vs none for 3x3.
    small_vom = small_energy.components["vom"]
    large_vom = large_energy.components["vom"]
    assert large_vom > small_vom


def test_kernel_bank_energy_included_in_mapping():
    model = OISAEnergyModel(OISAConfig())
    plan = plan_convolution(OISAConfig(), ConvWorkload(3, 64, 3, 128, 128, padding=1))
    first_frame = model.frame_energy_j(plan, include_mapping=True)
    assert "kernel_bank" in first_frame.components
    assert first_frame.components["kernel_bank"] > 0.0
    steady = model.frame_energy_j(plan)
    assert "kernel_bank" not in steady.components
