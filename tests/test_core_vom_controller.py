"""Tests for repro.core.controller."""

import pytest

from repro.core.config import OISAConfig
from repro.core.controller import TimingController
from repro.core.mapping import ConvWorkload, plan_convolution


# --------------------------------------------------------------------------
# TimingController
# --------------------------------------------------------------------------
@pytest.fixture
def controller():
    return TimingController(OISAConfig())


@pytest.fixture
def plan():
    cfg = OISAConfig()
    return plan_convolution(cfg, ConvWorkload(3, 64, 3, 128, 128, padding=1))


def test_exposure_budget(controller):
    assert controller.exposure_time_s() == pytest.approx(1e-3)
    assert controller.exposure_time_s(500.0) == pytest.approx(2e-3)


def test_compute_time(controller, plan):
    expected = plan.compute_cycles * 55.8e-12
    assert controller.compute_time_s(plan) == pytest.approx(expected)


def test_mapping_time_scales_with_iterations(controller):
    base = controller.mapping_time_s()
    assert base == pytest.approx(100 * 5 * 0.18e-9)
    with_tuning = controller.mapping_time_s(tuning_latency_s=4e-6)
    assert with_tuning == pytest.approx(base + 4e-6)


def test_frame_timing_sequential_vs_pipelined(controller, plan):
    timing = controller.frame_timing(plan)
    assert timing.sequential_s > timing.pipelined_s * 0.99
    assert timing.pipelined_s == pytest.approx(1e-3)  # exposure-dominated
    assert timing.pipelined_fps == pytest.approx(1000.0)


def test_paper_frame_rate_holds_with_remap(controller, plan):
    # Even paying a full weight remap, OISA sustains 1000 FPS.
    timing = controller.frame_timing(plan, remap_weights=True, tuning_latency_s=4e-6)
    assert timing.pipelined_fps >= 999.0


def test_compute_duty_small(controller, plan):
    timing = controller.frame_timing(plan)
    assert timing.compute_duty < 0.002  # ~1 us of a 1 ms frame


def test_transmit_time(controller, plan):
    outputs = plan.workload.windows_per_channel * plan.workload.num_kernels
    expected = outputs * controller.OUTPUT_BITS_PER_VALUE / controller.TRANSMIT_RATE_BPS
    assert controller.transmit_time_s(plan) == pytest.approx(expected)
