"""Tests for repro.util.validation."""

import numpy as np
import pytest

from repro.core.mapping import ConvWorkload
from repro.datasets.catalog import DATASET_PRESETS, load_preset
from repro.engine.chaos import CHAOS_PLANS, ChaosPlan
from repro.engine.controlplane import PLACEMENTS, ControlPlane
from repro.engine.failover import (
    BROWNOUT_CONFIGS,
    RETRY_POLICIES,
    RetryPolicy,
    brownout_enabled,
)
from repro.engine.health import FAULT_PROFILES, FaultProfile
from repro.engine.scheduler import POLICIES, scheduling_policy
from repro.engine.workloads import (
    ZOO,
    build_scenario,
    parse_model_specs,
    scenario_registry,
)
from repro.sim.fleet import FLEET_STRATEGIES, FleetModel
from repro.sim.platforms import get_platform, platform_registry
from repro.util.validation import (
    check_count,
    check_in_range,
    check_int_in,
    check_non_negative,
    check_positive,
    check_power_of_two,
    check_probability,
)


def test_check_positive():
    assert check_positive("x", 1.5) == 1.5
    for bad in (0, -1):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", bad)


def test_check_count():
    for good in (1, 240, np.int64(3)):
        assert check_count("n", good) == good
    for bad in (0, -2, True, np.True_, 2.5, 4.0, np.float64(3.0), "3", None):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            check_count("n", bad)


def test_check_non_negative():
    assert check_non_negative("x", 0.0) == 0.0
    with pytest.raises(ValueError):
        check_non_negative("x", -1e-9)


def test_check_in_range_inclusive():
    assert check_in_range("x", 0.0, 0.0, 1.0) == 0.0
    assert check_in_range("x", 1.0, 0.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        check_in_range("x", 1.0001, 0.0, 1.0)


def test_check_probability():
    assert check_probability("p", 0.5) == 0.5
    with pytest.raises(ValueError):
        check_probability("p", 1.5)


def test_check_power_of_two():
    for good in (1, 2, 4, 1024):
        assert check_power_of_two("n", good) == good
    for bad in (0, 3, -4, 6):
        with pytest.raises(ValueError):
            check_power_of_two("n", bad)


def test_check_int_in():
    assert check_int_in("k", 3, (3, 5, 7)) == 3
    with pytest.raises(ValueError):
        check_int_in("k", 4, (3, 5, 7))


def _hosted(placement):
    """Each shard's models after a two-shard serve under ``placement``."""
    plane = ControlPlane(shards=2, micro_batch=8, seed=0)
    scenario = build_scenario("default", frames=1)
    plane.serve_scenario(scenario, placement=placement)
    return [shard.server.model_keys for shard in plane.shards]


def _fleet_energy(strategy):
    workload = ConvWorkload(3, 8, 3, 128, 128, stride=2, padding=1)
    report = FleetModel().compare(workload, num_nodes=2)
    return report.fleet_energy_per_frame_j(strategy)


#: Every name lookup a user reaches, by the kind its error names:
#: (the registry's keys, the public lookup).
LOOKUPS = {
    "scheduling policy": (
        POLICIES,
        lambda name: type(scheduling_policy(name)),
    ),
    "scenario": (
        scenario_registry(),
        lambda name: build_scenario(name, frames=1).name,
    ),
    "fault profile": (FAULT_PROFILES, FaultProfile.named),
    "chaos plan": (CHAOS_PLANS, ChaosPlan.named),
    "retry policy": (RETRY_POLICIES, RetryPolicy.named),
    "brownout config": (BROWNOUT_CONFIGS, brownout_enabled),
    "placement": (PLACEMENTS, _hosted),
    "model family": ({spec.family for spec in ZOO}, parse_model_specs),
    "platform": (platform_registry(), lambda name: get_platform(name).key),
    "dataset": (
        DATASET_PRESETS,
        lambda name: load_preset(name, scale=0.01).name,
    ),
    "fleet strategy": (FLEET_STRATEGIES, _fleet_energy),
}


@pytest.mark.parametrize("kind", LOOKUPS)
def test_every_name_lookup_resolves_one_spelling(kind):
    """``registry_key`` is the one rule: any case and surrounding spaces
    resolve to the key's entry, and an unknown name fails with one
    message that lists the keys."""
    keys, resolve = LOOKUPS[kind]
    for key in keys:
        assert resolve(f"  {key.upper()} ") == resolve(key)
    with pytest.raises(ValueError, match=f"^unknown {kind} 'bogus'; known: "):
        resolve("bogus")
