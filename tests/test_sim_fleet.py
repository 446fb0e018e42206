"""Tests for repro.sim.fleet — the Fig. 2 multi-node model."""

import pytest

from repro.core.mapping import ConvWorkload
from repro.sim.fleet import FleetModel, RadioModel


@pytest.fixture
def workload():
    return ConvWorkload(3, 8, 3, 128, 128, stride=2, padding=1)


@pytest.fixture
def fleet():
    return FleetModel()


def test_radio_model():
    radio = RadioModel()
    assert radio.transmit_energy_j(1000) == pytest.approx(1000 * 180e-9)
    assert radio.transmit_time_s(1000) == pytest.approx(8e-3)
    with pytest.raises(ValueError):
        radio.transmit_energy_j(-1)


def test_feature_payload_smaller_than_raw(fleet, workload):
    oisa = fleet.oisa_node(workload)
    cloud = fleet.cloud_centric_node(workload)
    assert oisa.payload_bytes < cloud.payload_bytes
    # Raw RGB frame: 128 * 128 * 3 bytes.
    assert cloud.payload_bytes == 128 * 128 * 3


def test_oisa_wins_total_energy(fleet, workload):
    report = fleet.compare(workload, num_nodes=4)
    assert report.energy_reduction > 2.0
    assert report.traffic_reduction > 2.0


def test_fleet_energy_scales_with_nodes(fleet, workload):
    small = fleet.compare(workload, num_nodes=2)
    large = fleet.compare(workload, num_nodes=8)
    assert large.fleet_energy_per_frame_j("oisa") == pytest.approx(
        4 * small.fleet_energy_per_frame_j("oisa")
    )


def test_radio_dominates_cloud_centric(fleet, workload):
    cloud = fleet.cloud_centric_node(workload)
    assert cloud.radio_energy_j > cloud.compute_energy_j


def test_payload_bit_packing(fleet, workload):
    oisa = fleet.oisa_node(workload)
    pooled_outputs = (
        workload.num_kernels
        * (workload.output_height // 2)
        * (workload.output_width // 2)
    )
    assert oisa.payload_bytes == -(-pooled_outputs * 5 // 8)


def test_num_nodes_validated(fleet, workload):
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match="num_nodes must be an integer"):
            fleet.compare(workload, num_nodes=bad)
        with pytest.raises(ValueError, match="num_nodes must be an integer"):
            fleet.fleet_capacity_fps(workload, bad)


def test_sustainable_fps_matches_stream_simulator(fleet, workload):
    """One definition of the analytic bound: fleet delegates to stream."""
    from repro.sim.stream import StreamSimulator

    bound = fleet.sustainable_fps(workload)
    assert bound == StreamSimulator(fleet.config).max_sustainable_fps(workload)
    assert bound > 0.0


def test_fleet_capacity_scales_linearly(fleet, workload):
    per_node = fleet.sustainable_fps(workload)
    assert fleet.fleet_capacity_fps(workload, 3) == pytest.approx(3 * per_node)
    with pytest.raises(ValueError):
        fleet.fleet_capacity_fps(workload, 0)
