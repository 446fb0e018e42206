"""Programmatic design-space and platform sweeps with Pareto extraction.

Library counterpart of ``examples/design_space_exploration.py``: enumerate
architecture variants, evaluate the metrics the paper trades off
(throughput, efficiency, area, weight fidelity), and extract the Pareto
frontier.  :func:`sweep_platforms` additionally runs every *registered
platform* (see :mod:`repro.sim.platforms`) over a bit-configuration grid —
the uniform cross-platform sweep Fig. 9 and the ``repro sweep`` CLI
command are built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from repro.core.config import OISAConfig
from repro.core.energy import OISAEnergyModel, resnet18_first_layer_workload
from repro.core.mapping import ConvWorkload
from repro.core.opc import OpticalProcessingCore
from repro.nn.quant import UniformWeightQuantizer
from repro.sim.platforms import iter_platforms
from repro.sim.reports import SimulationReport
from repro.util.rng import derive_rng
from repro.util.tables import format_table


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated architecture variant."""

    num_banks: int
    weight_bits: int
    metrics: dict[str, float] = field(default_factory=dict)

    def metric(self, name: str) -> float:
        """Look up one metric value."""
        return self.metrics[name]


def evaluate_design(
    num_banks: int,
    weight_bits: int,
    seed: int = 0,
) -> DesignPoint:
    """Evaluate one (banks, bits) variant on the standard metric set."""
    config = OISAConfig(num_banks=num_banks).with_weight_bits(weight_bits)
    model = OISAEnergyModel(config)
    rng = derive_rng(seed, f"dse-{num_banks}-{weight_bits}")
    weights = rng.normal(size=(16, 3, 3, 3)) * 0.1
    quantizer = UniformWeightQuantizer(weight_bits)
    quantized = quantizer.quantize(weights)
    opc = OpticalProcessingCore(config, seed=seed, enable_read_noise=False)
    programmed = opc.program(quantized, quantizer.scale(weights))
    total_error = float(
        np.sqrt(np.mean((programmed.realized - weights) ** 2))
    )
    return DesignPoint(
        num_banks=num_banks,
        weight_bits=weight_bits,
        metrics={
            "throughput_tops": model.peak_throughput_ops() / 1e12,
            "efficiency_tops_per_watt": model.efficiency_tops_per_watt(),
            "area_mm2": model.area_mm2().total,
            "weight_rms_error": total_error,
            "peak_power_w": model.peak_power_w().total,
        },
    )


def sweep_design_space(
    bank_options: tuple[int, ...] = (20, 40, 80, 160),
    bit_options: tuple[int, ...] = (1, 2, 3, 4),
    seed: int = 0,
) -> list[DesignPoint]:
    """Evaluate the cross product of bank counts and bit widths."""
    return [
        evaluate_design(banks, bits, seed=seed)
        for banks, bits in product(bank_options, bit_options)
    ]


@dataclass(frozen=True)
class PlatformSweepPoint:
    """One (platform, bit-config) evaluation of the cross-platform sweep."""

    platform: str
    weight_bits: int
    activation_bits: int
    report: SimulationReport


def sweep_platforms(
    workload: ConvWorkload | None = None,
    bit_configs: tuple[tuple[int, int], ...] | None = None,
    config: OISAConfig | None = None,
) -> list[PlatformSweepPoint]:
    """Every registered platform x every bit configuration, one workload.

    Iterates the platform registry, so a newly registered platform shows
    up in the sweep (and everything built on it) without code changes.
    The default bit grid is Fig. 9's x-axis; points come back in registry
    order.
    """
    if bit_configs is None:
        from repro.analysis.fig9 import BIT_CONFIGS

        bit_configs = BIT_CONFIGS
    cfg = config or OISAConfig()
    load = workload or resnet18_first_layer_workload(cfg)
    return [
        PlatformSweepPoint(
            platform=platform.name,
            weight_bits=weight_bits,
            activation_bits=activation_bits,
            report=platform.simulate_conv(
                load, weight_bits=weight_bits, activation_bits=activation_bits
            ),
        )
        for platform in iter_platforms(cfg)
        if platform.supports_conv
        for weight_bits, activation_bits in bit_configs
    ]


def render_platform_sweep(points: list[PlatformSweepPoint] | None = None) -> str:
    """Aligned table of the cross-platform sweep (power and efficiency)."""
    points = points if points is not None else sweep_platforms()
    rows = [
        (
            point.platform,
            f"[{point.weight_bits},{point.activation_bits}]",
            point.report.average_power_w * 1e3,
            point.report.energy_per_frame_uj,
            point.report.efficiency_tops_per_watt,
        )
        for point in points
    ]
    return format_table(
        ("platform", "bits", "avg power [mW]", "energy [uJ]", "TOp/s/W"),
        rows,
        title="Cross-platform sweep (registry-driven)",
    )


def pareto_front(
    points: list[DesignPoint],
    maximize: tuple[str, ...] = ("throughput_tops", "efficiency_tops_per_watt"),
    minimize: tuple[str, ...] = ("area_mm2", "weight_rms_error"),
) -> list[DesignPoint]:
    """Non-dominated subset under the given objectives.

    A point dominates another when it is no worse on every objective and
    strictly better on at least one.
    """
    if not points:
        return []

    def objective_vector(point: DesignPoint) -> np.ndarray:
        best_higher = [point.metric(name) for name in maximize]
        best_lower = [-point.metric(name) for name in minimize]
        return np.array(best_higher + best_lower)

    vectors = [objective_vector(point) for point in points]
    front = []
    for index, candidate in enumerate(vectors):
        dominated = any(
            np.all(other >= candidate) and np.any(other > candidate)
            for j, other in enumerate(vectors)
            if j != index
        )
        if not dominated:
            front.append(points[index])
    return front
