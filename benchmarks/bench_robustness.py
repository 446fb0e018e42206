"""Robustness studies: faults, per-chip calibration, thermal drift.

Extensions beyond the paper's evaluation (its future-work surface): how the
architecture degrades and what the obvious engineering counter-measures
recover.
"""

import numpy as np
import pytest

from repro.analysis.robustness_report import (
    RobustnessSettings,
    build_robustness_report,
    train_probe_model,
)
from repro.circuits.awc import AwcDesign
from repro.core.awc import AwcWeightMapper
from repro.core.calibration import CalibratedAwcMapper
from repro.core.config import OISAConfig
from repro.core.opc import OpticalProcessingCore
from repro.core.pipeline import HardwareFirstLayerPipeline
from repro.core.thermal import ThermalModel
from repro.photonics.microring import MicroringResonator
from repro.photonics.tuning import HybridTuning
from repro.sim.faults import FaultSpec, FaultyOpticalCore
from repro.util.tables import format_table


@pytest.fixture(scope="module")
def trained_model_and_data():
    """The robustness report's trained QAT probe model and its data."""
    return train_probe_model(RobustnessSettings())


def test_fault_sweep_graceful_degradation(save_artifact):
    """Accuracy vs dead-MR rate: the array degrades gracefully."""
    report = build_robustness_report(
        RobustnessSettings(include_calibrated=False)
    )
    sweep = report.accuracy_matrix()["OISA"]
    rows = [(f"{rate * 100:.0f}%", acc * 100) for rate, acc in sweep.items()]
    accuracies = list(sweep.values())
    text = format_table(
        ("dead MR rate", "accuracy [%]"),
        rows,
        title="Robustness: accuracy vs dead-microring rate (3-bit LeNet)",
    )
    save_artifact("robustness_dead_mrs.txt", text)
    # A few percent of dead rings costs little; 30% hurts visibly.
    assert accuracies[1] > accuracies[0] - 0.1
    assert accuracies[-1] <= accuracies[0] + 1e-9


def test_calibration_recovers_precision(save_artifact):
    """Pre-distortion shrinks the realized-level error on a bad die."""
    rows = []
    for label, mismatch, offset in (
        ("healthy die", 0.03, 3e-6),
        ("poor die", 0.08, 8e-6),
    ):
        design = AwcDesign(num_bits=4, mismatch_sigma=mismatch, offset_sigma_a=offset)
        mapper = AwcWeightMapper(design, num_units=40, seed=1)
        calibrated = CalibratedAwcMapper(mapper)
        rows.append(
            (
                label,
                mapper.mean_level_error_lsb(),
                calibrated.residual_error_lsb(),
                calibrated.improvement_ratio(),
            )
        )
    text = format_table(
        ("die", "raw err [LSB]", "calibrated err [LSB]", "improvement"),
        rows,
        title="Robustness: per-chip AWC calibration (code pre-distortion)",
    )
    save_artifact("robustness_calibration.txt", text)
    assert all(row[2] <= row[1] for row in rows)


def test_thermal_drift_and_compensation(save_artifact):
    """Open-loop drift error vs the closed-loop residual."""
    thermal = ThermalModel(ring=MicroringResonator(), tuning=HybridTuning())
    weights = np.linspace(0.1, 0.9, 16)
    rows = []
    for delta_t in (0.1, 0.5, 1.0, 2.0):
        open_loop = thermal.open_loop_error(weights, delta_t)
        closed = thermal.closed_loop_error(weights, delta_t)
        power = thermal.compensation_power_w(delta_t, num_mrs=4000)
        rows.append((delta_t, open_loop, closed, power * 1e3))
    text = format_table(
        ("dT [K]", "open-loop RMS err", "closed-loop RMS err", "comp. power [mW]"),
        rows,
        title="Robustness: thermal drift (75 pm/K) and EO/TO compensation",
    )
    save_artifact("robustness_thermal.txt", text)
    for _, open_loop, closed, _ in rows:
        assert closed < open_loop


def test_bench_fault_injection_overhead(benchmark, trained_model_and_data):
    """Fault-wrapped convolution costs about the same as the healthy path."""
    model, dataset = trained_model_and_data
    opc = OpticalProcessingCore(OISAConfig().with_weight_bits(3), seed=7)
    faulty = FaultyOpticalCore(opc, FaultSpec(dead_mr_rate=0.05), seed=9)
    pipeline = HardwareFirstLayerPipeline(model, faulty)
    x = dataset.x_test[:64]
    out = benchmark(pipeline.forward, x)
    assert out.shape == (64, 4)


def test_bench_calibration_lut_construction(benchmark):
    """Building the pre-distortion lookup for a full AWC bank."""
    mapper = AwcWeightMapper(AwcDesign(num_bits=4), num_units=40, seed=0)
    calibrated = benchmark(CalibratedAwcMapper, mapper)
    assert calibrated.num_levels == 16
