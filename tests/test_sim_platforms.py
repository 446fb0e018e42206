"""Tests for repro.sim.platforms — the platform registry."""

import pytest

from repro.core.config import OISAConfig
from repro.core.energy import OISAEnergyModel, resnet18_first_layer_workload
from repro.core.mapping import ConvWorkload, MlpWorkload, plan_convolution
from repro.sim import platforms as platforms_module
from repro.sim.platforms import (
    Platform,
    get_platform,
    iter_platforms,
    platform_registry,
    register_platform,
)


@pytest.fixture
def workload():
    return ConvWorkload(3, 64, 3, 128, 128, padding=1)


def test_registry_canonical_order():
    assert platform_registry() == ("oisa", "crosslight", "appcip", "asic")


def test_get_platform_unknown_key_rejected():
    with pytest.raises(ValueError):
        get_platform("tpu")


def test_adapter_names_and_capabilities():
    adapters = {p.key: p for p in iter_platforms()}
    assert adapters["oisa"].name == "OISA"
    assert adapters["oisa"].supports_mlp
    assert adapters["oisa"].in_sensor
    assert adapters["appcip"].in_sensor
    assert not adapters["crosslight"].in_sensor
    for adapter in adapters.values():
        assert adapter.supports_conv


def test_parameters_metadata_present():
    for adapter in iter_platforms():
        parameters = adapter.parameters()
        assert parameters["key"] == adapter.key
        assert parameters["name"] == adapter.name
        assert "technology_nm" in parameters


def test_registry_reproduces_simulator_reports_bit_identically(workload):
    """Each adapter reports its simulation model's own numbers, exactly:
    OISA's energy model and mapping plan, each baseline's backend."""
    config = OISAConfig().with_weight_bits(4)
    model = OISAEnergyModel(config)
    plan = plan_convolution(config, workload)
    energy = model.frame_energy_j(plan)
    for adapter in iter_platforms():
        report = adapter.simulate_conv(workload, weight_bits=4, activation_bits=2)
        if adapter.key == "oisa":
            rate = config.frame_rate_hz
            assert report.frame_energy_j == energy.total
            assert report.average_power_w == energy.total * rate
            assert report.compute_cycles == plan.compute_cycles
            assert report.efficiency_tops_per_watt == (
                model.efficiency_tops_per_watt(workload.kernel_size)
            )
            assert report.breakdown.components == energy.scaled(rate).components
        else:
            power = adapter.backend.average_power_w(
                workload, weight_bits=4, activation_bits=2, frame_rate_hz=1000.0
            )
            assert report.average_power_w == power.total
            assert report.frame_energy_j == power.total / 1000.0
            assert report.breakdown.components == power.components


def test_oisa_table1_row_matches_analysis():
    from repro.analysis.table1 import build_oisa_row

    assert get_platform("oisa").table1_row() == build_oisa_row()


def test_baselines_reject_mlp():
    workload = MlpWorkload(784, 100)
    for key in ("crosslight", "appcip", "asic"):
        with pytest.raises(NotImplementedError):
            get_platform(key).simulate_mlp(workload)


def test_oisa_mlp_through_registry():
    report = get_platform("oisa").simulate_mlp(MlpWorkload(784, 100))
    assert report.compute_cycles == 20
    assert report.frame_energy_j > 0.0
    assert set(report.breakdown.components) == {"compute", "vom"}


def test_registering_new_platform_is_one_file():
    """A decorated subclass shows up in every registry consumer."""

    @register_platform("toy")
    class ToyPlatform(Platform):
        name = "Toy"
        supports_conv = True

        def simulate_conv(self, workload, **kwargs):
            raise RuntimeError("not exercised here")

    try:
        assert "toy" in platform_registry()
        assert isinstance(get_platform("toy"), ToyPlatform)
        assert any(p.key == "toy" for p in iter_platforms())
    finally:
        del platforms_module._REGISTRY["toy"]
    assert "toy" not in platform_registry()


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError):

        @register_platform("oisa")
        class Impostor(Platform):
            name = "Impostor"


def test_fig9_consumes_registry(workload):
    """Fig. 9's platform set is whatever the registry holds."""
    from repro.analysis.fig9 import build_fig9

    data = build_fig9()
    expected_names = {p.name for p in iter_platforms()}
    assert set(data.power_w) == expected_names


def test_fig9_skips_conv_incapable_platforms():
    """Registering an MLP-only platform must not break the conv sweep."""
    from repro.analysis.fig9 import build_fig9

    @register_platform("mlponly")
    class MlpOnly(Platform):
        name = "MlpOnly"
        supports_mlp = True

    try:
        data = build_fig9()
        assert "MlpOnly" not in data.power_w
    finally:
        del platforms_module._REGISTRY["mlponly"]


def test_platform_sweep_consumes_registry():
    from repro.analysis.sweeps import render_platform_sweep, sweep_platforms

    points = sweep_platforms(bit_configs=((4, 2),))
    names = [point.platform for point in points]
    assert names == [p.name for p in iter_platforms() if p.supports_conv]
    text = render_platform_sweep(points)
    assert "OISA" in text and "Crosslight" in text


def test_table1_platform_rows_cover_baselines():
    from repro.analysis.table1 import build_platform_rows

    rows = dict(build_platform_rows())
    assert set(rows) == {"Crosslight (rebuilt)", "AppCip (rebuilt)", "ASIC (rebuilt)"}
    for row in rows.values():
        assert float(row["power_mw"]) > 0.0


def test_reference_workload_reductions_sane(workload):
    """Registry-driven fig9 keeps OISA cheapest on the paper workload."""
    adapters = list(iter_platforms())
    reference = resnet18_first_layer_workload()
    powers = {
        a.name: a.simulate_conv(reference, weight_bits=4).average_power_w
        for a in adapters
    }
    for name, power in powers.items():
        if name != "OISA":
            assert power > powers["OISA"]
