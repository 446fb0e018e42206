"""Tests for repro.engine.chaos — deterministic fleet fault injection."""

import math

import numpy as np
import pytest

from repro.engine import FaultProfile, FrameServer
from repro.engine.chaos import (
    CHAOS_KINDS,
    ChaosPlan,
    ChaosSpec,
    ChaosTimeline,
)
from repro.engine.workloads import build_scenario
from repro.nn.models import build_lenet
from repro.sim.faults import FaultSpec
from repro.util.validation import (
    check_finite_non_negative,
    check_non_negative,
)


# ----------------------------------------------------------------------
# Specs + named plans
# ----------------------------------------------------------------------
def test_spec_validation():
    with pytest.raises(ValueError, match="unknown chaos kind"):
        ChaosSpec(kind="meteor-strike", at_s=0.0)
    with pytest.raises(ValueError):
        ChaosSpec(kind="node-loss", at_s=0.01)  # windowed kind, no duration
    with pytest.raises(ValueError):
        ChaosSpec(kind="region-outage", at_s=0.0, duration_s=0.01, fraction=1.5)
    with pytest.raises(ValueError):
        ChaosSpec(kind="latency-spike", at_s=0.0, duration_s=0.01, factor=0.0)


#: One NaN setting per checked name.
_NAN_SETTINGS = {
    "value": lambda: check_non_negative("value", math.nan),
    "at_s": lambda: ChaosSpec(
        kind="node-loss", at_s=math.nan, duration_s=0.01
    ),
    "every_s": lambda: ChaosSpec(
        kind="cache-storm", at_s=0.0, every_s=math.nan
    ),
    "fault_onset_s": lambda: FaultProfile(fault_onset_s=math.nan),
}


@pytest.mark.parametrize("name", sorted(_NAN_SETTINGS))
def test_nan_is_not_non_negative(name):
    """NaN fails every comparison, so a ``value < 0`` check let it pass: a
    NaN onset scheduled a chaos event or an upset that never fired."""
    with pytest.raises(ValueError, match=f"{name} must be non-negative"):
        _NAN_SETTINGS[name]()


#: One infinite setting per onset or period that must be finite.
_INF_SETTINGS = {
    "value": lambda: check_finite_non_negative("value", math.inf),
    "at_s": lambda: ChaosSpec(
        kind="node-loss", at_s=math.inf, duration_s=0.01
    ),
    "jitter_s": lambda: ChaosSpec(
        kind="node-loss", at_s=0.0, duration_s=0.01, jitter_s=math.inf
    ),
    "every_s": lambda: ChaosSpec(
        kind="cache-storm", at_s=0.0, repeats=2, every_s=math.inf
    ),
    "fault_onset_s": lambda: FaultProfile(fault_onset_s=math.inf),
    "fault_every_s": lambda: FaultProfile(
        fault_onset_s=0.0, fault_every_s=math.inf
    ),
    "node_stagger_s": lambda: FaultProfile(
        fault_onset_s=0.0, node_stagger_s=math.inf
    ),
    "drift_k_per_s": lambda: FaultProfile(drift_k_per_s=math.inf),
}


@pytest.mark.parametrize("name", sorted(_INF_SETTINGS))
def test_onsets_and_periods_must_be_finite(name):
    """An onset or a period at infinity never comes round: a chaos event
    at ``inf`` never fires, and a profile whose onset is ``inf`` would
    still count as active and monitor a fleet it can never degrade.  (A
    node loss of infinite *duration* stays valid: it is the permanent
    loss.)"""
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        _INF_SETTINGS[name]()


def test_named_plans_resolve():
    assert ChaosPlan.named("none") is None
    for name in (
        "node-loss",
        "region-outage",
        "correlated-upsets",
        "cache-storm",
        "latency-spike",
        "rolling",
    ):
        plan = ChaosPlan.named(name)
        assert plan is not None and plan.specs
        for spec in plan.specs:
            assert spec.kind in CHAOS_KINDS
    with pytest.raises(ValueError, match="unknown chaos plan"):
        ChaosPlan.named("meteor-strike")


# ----------------------------------------------------------------------
# Schedule resolution
# ----------------------------------------------------------------------
def test_schedule_is_deterministic_per_seed():
    plan = ChaosPlan.named("rolling")  # jittered onsets + node draws
    assert plan.schedule(4, seed=0) == plan.schedule(4, seed=0)
    assert plan.schedule(4, seed=0) != plan.schedule(4, seed=1)


def test_schedule_is_sorted_and_attributed():
    events = ChaosPlan.named("cache-storm").schedule(3, seed=0)
    assert len(events) == 3  # repeats=3
    assert [e.time_s for e in events] == sorted(e.time_s for e in events)
    assert [e.detail for e in events] == [
        "cache-storm[0]#0",
        "cache-storm[0]#1",
        "cache-storm[0]#2",
    ]
    # count=0 means the whole fleet, per repeat.
    assert all(e.node_ids == (0, 1, 2) for e in events)


def test_schedule_node_sizing():
    # fraction rounds against the fleet size, floor one node.
    outage = ChaosPlan.named("region-outage").schedule(4, seed=0)[0]
    assert len(outage.node_ids) == 2
    assert ChaosPlan.named("region-outage").schedule(1, seed=0)[0].node_ids
    # count larger than the fleet clips.
    spec = ChaosSpec(kind="node-loss", at_s=0.01, duration_s=0.01, count=9)
    assert len(ChaosPlan(specs=(spec,)).schedule(2, seed=0)[0].node_ids) == 2
    # latency spikes are fleet-wide (no node draw).
    spike = ChaosPlan.named("latency-spike").schedule(2, seed=0)[0]
    assert spike.node_ids == ()
    assert spike.fault_spec is None


def test_correlated_upset_carries_its_fault_spec():
    event = ChaosPlan.named("correlated-upsets").schedule(2, seed=0)[0]
    assert event.fault_spec == FaultSpec(dead_mr_rate=0.3, bpd_gain_sigma=0.15)
    assert event.end_s == event.time_s  # point event


# ----------------------------------------------------------------------
# Timeline cursor + latency windows
# ----------------------------------------------------------------------
def test_timeline_due_cursor_fires_each_event_once():
    timeline = ChaosTimeline(ChaosPlan.named("cache-storm"), 2, seed=0)
    assert timeline.due(0.01) == []
    first = timeline.due(0.03)
    assert [e.detail for e in first] == ["cache-storm[0]#0"]
    assert timeline.due(0.03) == []  # already fired
    rest = timeline.due(1.0)
    assert [e.detail for e in rest] == ["cache-storm[0]#1", "cache-storm[0]#2"]
    assert timeline.due(2.0) == []


def test_timeline_latency_factor_windows():
    timeline = ChaosTimeline(ChaosPlan.named("latency-spike"), 2, seed=0)
    (event,) = timeline.events
    assert timeline.latency_factor(event.time_s - 1e-6) == 1.0
    assert timeline.latency_factor(event.time_s) == 3.0
    assert timeline.latency_factor(event.end_s) == 1.0  # half-open window


# ----------------------------------------------------------------------
# End-to-end serving under chaos
# ----------------------------------------------------------------------
def _serve_chaos(plan, frames=96, **kwargs):
    scenario = build_scenario(
        "chaos", frames=frames, offered_fps=2400.0, seed=0
    )
    server = FrameServer(
        num_nodes=2, micro_batch=8, seed=0, policy="slo",
        chaos_plan=plan, **kwargs,
    )
    for key, model in scenario.models.items():
        server.register_model(key, model)
    server.warmup()
    return server.serve_scenario(scenario)


@pytest.mark.parametrize(
    "plan", ["node-loss", "correlated-upsets", "cache-storm", "latency-spike"]
)
def test_chaos_serving_is_deterministic(plan):
    assert _serve_chaos(plan).record() == _serve_chaos(plan).record()


def test_node_loss_fires_and_is_audited():
    report = _serve_chaos("node-loss")
    health = report.health
    assert health is not None
    losses = [e for e in health.events if e.kind == "chaos-node-loss"]
    assert len(losses) == 1
    assert health.chaos_events == 1
    # The carrier profile is chaos-only: no organic drift or upsets.
    assert not [e for e in health.events if e.kind == "upset"]


def test_correlated_upsets_trip_recalibration():
    report = _serve_chaos("correlated-upsets", frames=200)
    kinds = [e.kind for e in report.health.events]
    assert "chaos-upset" in kinds
    assert "recalibrated" in kinds
    assert report.health.recalibrations >= 1


def test_cache_storm_forces_remaps():
    calm = _serve_chaos(None)
    storm = _serve_chaos("cache-storm")
    assert storm.cache_misses > calm.cache_misses


def test_latency_spike_stretches_service_times():
    calm = _serve_chaos(None)
    spike = _serve_chaos("latency-spike")
    calm_lat = [
        r.event.latency_s for r in calm.responses if not r.dropped
    ]
    spike_lat = [
        r.event.latency_s for r in spike.responses if not r.dropped
    ]
    assert sum(spike_lat) / len(spike_lat) > sum(calm_lat) / len(calm_lat)


def test_chaos_none_is_bit_identical_to_plain_server():
    frames = np.random.default_rng(3).uniform(0.0, 1.0, (48, 1, 28, 28))

    def run(**kwargs):
        server = FrameServer(num_nodes=2, micro_batch=8, seed=0, **kwargs)
        server.register_model("a", build_lenet(seed=0))
        return server.serve_frames(frames, "a", offered_fps=1500.0)

    plain = run()
    gated = run(chaos_plan=None, retry_policy=None, spares=0, brownout=None)
    assert gated.record() == plain.record()
