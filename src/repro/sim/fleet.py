"""Fleet-level model of the paper's Fig. 2 multi-node IoT deployment.

Library counterpart of ``examples/multi_node_iot.py``: N OISA nodes stream
first-layer features to a cloud aggregator, compared against conventional
nodes shipping raw digitised frames.  Captures the paper's thing-centric
argument quantitatively: per-node energy, bytes on the wire, and the fleet
aggregate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.circuits.adc_dac import AdcModel
from repro.core.config import OISAConfig
from repro.core.energy import OISAEnergyModel
from repro.core.mapping import ConvWorkload, plan_convolution
from repro.util.validation import (
    check_count,
    check_positive,
    registry_key,
)

#: The two node strategies a :class:`FleetReport` compares.
FLEET_STRATEGIES = ("oisa", "cloud-centric")


@dataclass(frozen=True)
class RadioModel:
    """Edge-radio energy/throughput model (BLE / 802.15.4 class)."""

    energy_per_byte_j: float = 180e-9
    throughput_bps: float = 1e6

    def __post_init__(self) -> None:
        check_positive("energy_per_byte_j", self.energy_per_byte_j)
        check_positive("throughput_bps", self.throughput_bps)

    def transmit_energy_j(self, num_bytes: int) -> float:
        """Radio energy for a payload [J]."""
        if num_bytes < 0:
            raise ValueError(f"num_bytes must be >= 0, got {num_bytes}")
        return self.energy_per_byte_j * num_bytes

    def transmit_time_s(self, num_bytes: int) -> float:
        """Airtime for a payload [s]."""
        return 8.0 * num_bytes / self.throughput_bps


@dataclass(frozen=True)
class NodeReport:
    """Per-frame cost of one node under one strategy."""

    strategy: str
    compute_energy_j: float
    payload_bytes: int
    radio_energy_j: float

    @property
    def total_energy_j(self) -> float:
        """Compute + radio energy per frame."""
        return self.compute_energy_j + self.radio_energy_j


@dataclass(frozen=True)
class FleetReport:
    """Aggregate comparison of the two strategies across the fleet."""

    num_nodes: int
    oisa: NodeReport
    cloud_centric: NodeReport

    @property
    def energy_reduction(self) -> float:
        """Cloud-centric energy over OISA energy (per node and fleet)."""
        return self.cloud_centric.total_energy_j / self.oisa.total_energy_j

    @property
    def traffic_reduction(self) -> float:
        """Raw-frame bytes over feature bytes."""
        return self.cloud_centric.payload_bytes / self.oisa.payload_bytes

    def fleet_energy_per_frame_j(self, strategy: str) -> float:
        """Total fleet energy per captured frame under a
        :data:`FLEET_STRATEGIES` strategy."""
        key = registry_key("fleet strategy", strategy, FLEET_STRATEGIES)
        report = self.oisa if key == "oisa" else self.cloud_centric
        return report.total_energy_j * self.num_nodes


class FleetModel:
    """Compare OISA nodes against cloud-centric nodes (Fig. 2)."""

    #: Bits per transmitted first-layer feature (4-bit magnitude + sign).
    FEATURE_BITS = 5
    #: Spatial pooling applied to features before transmission.
    POOL_FACTOR = 2

    def __init__(
        self,
        config: OISAConfig | None = None,
        radio: RadioModel | None = None,
        sensor_adc: AdcModel | None = None,
    ) -> None:
        self.config = config or OISAConfig()
        self.radio = radio or RadioModel()
        self.sensor_adc = sensor_adc or AdcModel(bits=8)
        self.energy_model = OISAEnergyModel(self.config)

    def oisa_node(self, workload: ConvWorkload) -> NodeReport:
        """OISA strategy: compute first layer in-sensor, ship features."""
        plan = plan_convolution(self.config, workload)
        compute = self.energy_model.frame_energy_j(plan).total
        outputs = (
            workload.num_kernels
            * (workload.output_height // self.POOL_FACTOR)
            * (workload.output_width // self.POOL_FACTOR)
        )
        payload = math.ceil(outputs * self.FEATURE_BITS / 8)
        return NodeReport(
            strategy="oisa",
            compute_energy_j=compute,
            payload_bytes=payload,
            radio_energy_j=self.radio.transmit_energy_j(payload),
        )

    def cloud_centric_node(self, workload: ConvWorkload) -> NodeReport:
        """Conventional strategy: digitise every pixel, ship the frame."""
        pixels = (
            workload.image_height * workload.image_width * workload.in_channels
        )
        compute = self.sensor_adc.energy_per_conversion_j() * pixels
        payload = pixels  # 8-bit pixels
        return NodeReport(
            strategy="cloud-centric",
            compute_energy_j=compute,
            payload_bytes=payload,
            radio_energy_j=self.radio.transmit_energy_j(payload),
        )

    def sustainable_fps(self, workload: ConvWorkload) -> float:
        """Highest drop-free per-node rate for a steady kernel set [FPS].

        The analytic ceiling of one node's exposure-overlapped service
        time — the single-model upper bound the capacity-planning curves
        (:mod:`repro.analysis.capacity`) compare the simulated policies
        against.  Mixed scenarios sit below it (kernel swaps pay remap
        phases), queueing policies approach it from below.  Delegates to
        :meth:`~repro.sim.stream.StreamSimulator.max_sustainable_fps` —
        one definition of the bound, fleet-facing name.
        """
        from repro.sim.stream import StreamSimulator

        return StreamSimulator(self.config).max_sustainable_fps(workload)

    def fleet_capacity_fps(
        self, workload: ConvWorkload, num_nodes: int
    ) -> float:
        """Aggregate drop-free rate of ``num_nodes`` nodes [FPS]."""
        check_count("num_nodes", num_nodes)
        return num_nodes * self.sustainable_fps(workload)

    def compare(self, workload: ConvWorkload, num_nodes: int) -> FleetReport:
        """Fleet-level comparison of the two strategies."""
        check_count("num_nodes", num_nodes)
        return FleetReport(
            num_nodes=num_nodes,
            oisa=self.oisa_node(workload),
            cloud_centric=self.cloud_centric_node(workload),
        )
