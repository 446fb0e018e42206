"""Tests for the in-house simulator's per-platform reports, driven
through the platform registry's adapters (repro.sim.platforms)."""

import pytest

from repro.core.mapping import ConvWorkload, MlpWorkload
from repro.sim.platforms import get_platform, iter_platforms
from repro.sim.reports import render_report


@pytest.fixture
def oisa():
    return get_platform("oisa")


@pytest.fixture
def workload():
    return ConvWorkload(3, 64, 3, 128, 128, padding=1)


def _compare(workload, **kwargs):
    """What ``repro compare`` reports: every conv-capable platform."""
    return [
        platform.simulate_conv(workload, **kwargs)
        for platform in iter_platforms()
        if platform.supports_conv
    ]


def test_oisa_report_fields(oisa, workload):
    report = oisa.simulate_conv(workload)
    assert report.platform == "OISA"
    assert report.compute_cycles == workload.windows_per_channel
    assert report.efficiency_tops_per_watt == pytest.approx(6.68, rel=0.03)
    assert report.frame_energy_j > 0.0


def test_oisa_bit_width_override(oisa, workload):
    report = oisa.simulate_conv(workload, weight_bits=2)
    assert report.weight_bits == 2


def test_include_mapping_adds_energy(oisa, workload):
    steady = oisa.simulate_conv(workload)
    first = oisa.simulate_conv(workload, include_mapping=True)
    assert first.frame_energy_j > steady.frame_energy_j


def test_oisa_mlp_simulation(oisa):
    workload = MlpWorkload(input_features=784, output_features=100)
    report = oisa.simulate_mlp(workload)
    assert report.compute_cycles == 20  # from the mapping plan
    assert report.frame_energy_j > 0.0


def test_baseline_platforms(workload):
    for platform, expected_name in (
        ("crosslight", "Crosslight"),
        ("appcip", "AppCip"),
        ("asic", "ASIC"),
    ):
        report = get_platform(platform).simulate_conv(workload)
        assert report.platform == expected_name
        assert report.weight_bits == 4
        assert report.frame_rate_fps == 1000.0
        assert report.average_power_w > 0.0


def test_unknown_platform_rejected():
    with pytest.raises(ValueError, match="unknown platform 'tpu'"):
        get_platform("tpu")


def test_compare_all_order_and_winner(workload):
    reports = _compare(workload, weight_bits=4)
    assert [r.platform for r in reports] == ["OISA", "Crosslight", "AppCip", "ASIC"]
    oisa_power = reports[0].average_power_w
    for report in reports[1:]:
        assert report.average_power_w > oisa_power


def test_render_report_table(workload):
    text = render_report(_compare(workload), title="cmp")
    assert "OISA" in text and "ASIC" in text
    assert text.splitlines()[0] == "cmp"
