"""Control-plane unit tests: autoscaler, routing, merge integrity, limits.

Covers the pieces :mod:`repro.engine.controlplane` layers on top of the
plain frame server — the reactive :class:`Autoscaler` (warm start,
jump-to-target scale-up, dwell-gated scale-down, the no-flap guarantee),
the byte-determinism of the scaling audit trail over real scenarios,
per-serve routing (each report lists its own stream's routes), the
multi-shard merge (index bijection, global node ids, additive SLO
accounting), and the ``node_limit`` prefix contract the whole
warm-spare design rides on.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from repro.engine import (
    Autoscaler,
    AutoscalerConfig,
    ChaosPlan,
    ControlPlane,
    FrameRequest,
    FrameServer,
    build_scenario,
)
from repro.engine.controlplane import DWELL_WINDOWS
from repro.nn.models import build_lenet


def _config(**overrides):
    defaults = dict(
        window_s=0.1,
        min_nodes=1,
        max_nodes=4,
        fps_per_node=100.0,
    )
    defaults.update(overrides)
    return AutoscalerConfig(**defaults)


# ----------------------------------------------------------------------
# AutoscalerConfig validation and parsing
# ----------------------------------------------------------------------
def test_config_rejects_inverted_bounds():
    with pytest.raises(ValueError, match="max_nodes"):
        AutoscalerConfig(min_nodes=3, max_nodes=2)
    with pytest.raises(ValueError, match="window_s"):
        AutoscalerConfig(window_s=0.0)
    with pytest.raises(ValueError, match="fps_per_node"):
        AutoscalerConfig(fps_per_node=-1.0)
    # Window starts are multiples of window_s, and 0 * inf is NaN.
    with pytest.raises(ValueError, match="window_s must be finite"):
        AutoscalerConfig(window_s=math.inf)
    with pytest.raises(ValueError, match="fps_per_node must be finite"):
        AutoscalerConfig(fps_per_node=math.inf)


def test_config_parse_cli_spec():
    config = AutoscalerConfig.parse("1:4")
    assert (config.min_nodes, config.max_nodes) == (1, 4)
    assert config.window_s == AutoscalerConfig().window_s
    assert AutoscalerConfig.parse("2:3:0.02").window_s == 0.02
    with pytest.raises(ValueError, match="min:max"):
        AutoscalerConfig.parse("3")
    with pytest.raises(ValueError):
        AutoscalerConfig.parse("4:1")


# ----------------------------------------------------------------------
# Autoscaler mechanics
# ----------------------------------------------------------------------
def test_warm_start_and_dwell_gated_scale_down():
    scaler = Autoscaler("s0", _config(), 100.0)
    assert scaler.nodes == 4  # warm start at max
    assert scaler.observe(0, 30.0) == 4  # first low window: dwell
    assert scaler.observe(1, 30.0) == 3  # second: one node trimmed
    assert scaler.observe(2, 30.0) == 3  # streak restarted after a trim
    assert scaler.observe(3, 30.0) == 2
    assert [d.reason for d in scaler.decisions] == [
        "scale-down:idle",
        "scale-down:idle",
    ]


def test_scale_up_jumps_to_target_and_clamps():
    scaler = Autoscaler("s0", _config(), 100.0)
    for w in range(6):  # trim down to min first
        scaler.observe(w, 5.0)
    assert scaler.nodes == 1
    # 350 FPS at target 0.7 needs ceil(350/70) = 5 nodes -> clamp to 4.
    assert scaler.observe(6, 350.0) == 4
    up = scaler.decisions[-1]
    assert up.reason == "scale-up:pressure"
    assert (up.from_nodes, up.to_nodes) == (1, 4)


def test_mid_band_resets_the_dwell_streak():
    scaler = Autoscaler("s0", _config(), 100.0)
    scaler.observe(0, 30.0)  # low
    scaler.observe(1, 200.0)  # hysteresis band (0.5 pressure): forgives
    scaler.observe(2, 30.0)  # low again, but the streak restarted
    assert scaler.nodes == 4
    scaler.observe(3, 30.0)
    assert scaler.nodes == 3


def test_never_leaves_the_configured_bounds():
    scaler = Autoscaler("s0", _config(min_nodes=2, max_nodes=3), 100.0)
    for w in range(20):
        scaler.observe(w, 1.0)
    assert scaler.nodes == 2
    for w in range(20, 25):
        scaler.observe(w, 10_000.0)
    assert scaler.nodes == 3


# ----------------------------------------------------------------------
# Determinism + no-flap over real scenarios
# ----------------------------------------------------------------------
def _autoscaled_plane():
    return ControlPlane(
        shards=2,
        micro_batch=8,
        seed=0,
        policy="greedy",
        autoscaler=AutoscalerConfig(
            window_s=0.02, min_nodes=1, max_nodes=3, fps_per_node=250.0
        ),
    )


@pytest.mark.parametrize("key", ["diurnal", "poisson-burst"])
def test_decision_trail_is_byte_deterministic(key):
    """Same scenario + seed + config => byte-identical audit trail."""
    trails = []
    for _ in range(2):
        scenario = build_scenario(key, frames=72, offered_fps=900.0, seed=0)
        report = _autoscaled_plane().serve_scenario(scenario)
        trails.append(report.controlplane.decision_trail())
    assert trails[0] == trails[1]
    assert trails[0]  # the drill actually scaled
    # Every line reprs floats (no str() rounding) — parseable and stable.
    for line in trails[0].splitlines():
        assert " pressure=" in line and "->" in line


@pytest.mark.parametrize("key", ["diurnal", "poisson-burst"])
def test_no_flapping_within_the_dwell_window(key):
    """A scale-up is never answered by a scale-down inside the dwell."""
    scenario = build_scenario(key, frames=72, offered_fps=900.0, seed=0)
    report = _autoscaled_plane().serve_scenario(scenario)
    by_shard: dict = {}
    for decision in report.controlplane.decisions:
        by_shard.setdefault(decision.shard, []).append(decision)
    for decisions in by_shard.values():
        assert decisions == sorted(decisions, key=lambda d: d.window)
        for previous, current in zip(decisions, decisions[1:]):
            if (
                previous.reason == "scale-up:pressure"
                and current.reason == "scale-down:idle"
            ):
                assert current.window - previous.window >= DWELL_WINDOWS, (
                    f"flap: up at w{previous.window}, down at "
                    f"w{current.window} (dwell {DWELL_WINDOWS})"
                )


@pytest.mark.parametrize(
    "policy, knee", [("slo", 2296.875), ("greedy", 185.9375)]
)
def test_capacity_model_programs_each_model_die_pair_once(
    policy, knee, monkeypatch
):
    """The knee search behind ``fps_per_node`` shares one prewarmed cache."""
    import hashlib
    from collections import Counter

    from repro.analysis.capacity import sustainable_fps_per_node
    from repro.core.opc import OpticalProcessingCore

    programs: Counter = Counter()
    original = OpticalProcessingCore.program

    def counting(self, quantized_weights, scale):
        digest = hashlib.sha256(np.asarray(quantized_weights).tobytes())
        programs[(self.seed, digest.hexdigest())] += 1
        return original(self, quantized_weights, scale)

    monkeypatch.setattr(OpticalProcessingCore, "program", counting)
    assert sustainable_fps_per_node("diurnal-regions", policy=policy) == knee
    # Four models (three regional LeNets + the batch MLP) on one die.
    assert len(programs) == 4
    assert set(programs.values()) == {1}


def test_node_seconds_accounting_is_consistent():
    scenario = build_scenario("diurnal", frames=72, offered_fps=900.0, seed=0)
    plane = _autoscaled_plane()
    cp = plane.serve_scenario(scenario).controlplane
    window_s = cp.window_s
    total = sum(
        count * window_s
        for trajectory in cp.nodes_by_window.values()
        for count in trajectory
    )
    assert cp.node_seconds == pytest.approx(total)
    assert cp.static_node_seconds == pytest.approx(
        len(cp.shards) * 3 * cp.windows * window_s
    )
    assert 0.0 <= cp.node_seconds_saved_frac < 1.0


# ----------------------------------------------------------------------
# Multi-shard merge integrity
# ----------------------------------------------------------------------
def test_static_multi_shard_merge_preserves_the_stream():
    scenario = build_scenario(
        "mixed-tenants", frames=48, offered_fps=1500.0, seed=0
    )
    total_offered = len(scenario.requests)
    plane = ControlPlane(shards=3, nodes_per_shard=2, micro_batch=8, seed=0)
    report = plane.serve_scenario(scenario)

    assert len(report.responses) == total_offered
    assert [r.index for r in report.responses] == list(range(total_offered))
    total_nodes = 3 * 2
    for response in report.responses:
        if not response.dropped:
            assert 0 <= response.node_id < total_nodes
    assert set(report.node_frames) <= set(range(total_nodes))
    assert sum(report.node_frames.values()) == total_offered - len(
        [r for r in report.responses if r.dropped]
    )
    events = report.stream.events
    assert len(events) == total_offered
    ordered = sorted(events, key=lambda e: (e.arrival_s, e.index))
    assert events == ordered
    assert report.slo is not None
    assert (
        sum(stats.offered for stats in report.slo.classes.values())
        == total_offered
    )
    cp = report.controlplane
    assert cp.autoscaled is False
    assert sorted(cp.shards) == ["s0", "s1", "s2"]
    assert set(cp.routes.values()) <= {"s0", "s1", "s2"}


#: sha256 of ``json.dumps(report.record(), sort_keys=True)`` for three
#: serves of the 600-frame diurnal-regions stream on 3-node shards: the
#: full record, ``controlplane`` part included.  Case -> (shards,
#: placement, autoscaled, digest).
_PINNED_RECORDS = {
    "1-shard-replicate": (
        1,
        "replicate",
        False,
        "d4d8ca017edca3398d0e7d7da8a09f5d451c4d9974034d6dd82d7458bef774e0",
    ),
    "3-shard-partition": (
        3,
        "partition",
        False,
        "3c88788a16ae3c6da6711199b30bc90c15d2b01e57cf19f3d50f2c12cff5ba14",
    ),
    "3-shard-partition-autoscaled": (
        3,
        "partition",
        True,
        "265e603a67aadb64007648765df322d085b8aadb6a046051d7e11583fb28dfa5",
    ),
}


@pytest.mark.parametrize("case", list(_PINNED_RECORDS))
def test_control_plane_records_are_pinned(case):
    """Every response, counter and control-plane field of a plane serve,
    end to end, against its recorded digest."""
    import hashlib
    import json

    shards, placement, autoscaled, expected = _PINNED_RECORDS[case]
    scenario = build_scenario(
        "diurnal-regions", frames=600, offered_fps=800.0, seed=0
    )
    plane = ControlPlane(
        shards=shards,
        nodes_per_shard=3,
        micro_batch=8,
        seed=0,
        policy="greedy",
        autoscaler=(
            AutoscalerConfig(window_s=0.01, min_nodes=1, max_nodes=3)
            if autoscaled
            else None
        ),
    )
    record = plane.serve_scenario(scenario, placement=placement).record()
    digest = hashlib.sha256(
        json.dumps(record, sort_keys=True).encode()
    ).hexdigest()
    assert digest == expected


def test_partition_placement_deals_models_round_robin():
    scenario = build_scenario(
        "diurnal-regions", frames=40, offered_fps=800.0, seed=0
    )
    plane = ControlPlane(shards=3, nodes_per_shard=1, micro_batch=8, seed=0)
    plane.serve_scenario(scenario, placement="partition")
    hosted = {
        shard.name: sorted(shard.server.model_keys) for shard in plane.shards
    }
    # Four zoo entries dealt over three shards: the fourth wraps to s0,
    # and each shard hosts exactly what it was dealt.
    assert hosted == {
        "s0": ["lenet-4b@na", "mlp-2b"],
        "s1": ["lenet-4b@eu"],
        "s2": ["lenet-4b@ap"],
    }
    with pytest.raises(ValueError, match="placement"):
        plane.serve_scenario(scenario, placement="sharded")


def _plane_state(plane):
    """What a rejected serve must leave untouched: a plane keeps no
    routes between serves, so only its shared cache's counters."""
    return (plane.cache.stats.hits, plane.cache.stats.misses)


@pytest.mark.parametrize(
    "index, bad, message",
    [
        (5, dict(model_key="missing"), "unknown model key 'missing'"),
        (4, dict(arrival_s=float("nan")), "arrival_s must be finite"),
        (3, dict(frame=[[0.0]]), "frame must be a numpy.ndarray"),
    ],
    ids=["unknown-key", "nan-arrival", "non-ndarray-frame"],
)
def test_serve_rejects_bad_input_before_routing(index, bad, message):
    """Bad input fails before any route is recorded, naming the request's
    index in the whole stream rather than in its shard's partition."""
    frames = np.random.default_rng(3).uniform(0.0, 1.0, (6, 1, 28, 28))
    requests = [
        FrameRequest(frames[i], "m", tenant=f"t{i}") for i in range(6)
    ]
    requests[index] = dataclasses.replace(requests[index], **bad)
    plane = ControlPlane(shards=2, nodes_per_shard=1, micro_batch=8, seed=0)
    plane.register_model("m", build_lenet(seed=0))
    before = _plane_state(plane)
    with pytest.raises(ValueError, match=f"^request {index}: {message}"):
        plane.serve(requests, offered_fps=900.0)
    assert _plane_state(plane) == before


def test_wall_clock_covers_the_whole_call(monkeypatch):
    """The autoscaler's capacity probe runs inside ``serve``, so its host
    time is in ``wall_clock_s`` with the shard serves'."""
    resolve = ControlPlane._resolve_fps_per_node

    def slow_resolve(self, scenario):
        time.sleep(0.3)
        return resolve(self, scenario)

    monkeypatch.setattr(ControlPlane, "_resolve_fps_per_node", slow_resolve)
    frames = np.random.default_rng(0).uniform(0.0, 1.0, (8, 1, 28, 28))
    plane = _autoscaled_plane()
    plane.register_model("m", build_lenet(seed=0))
    report = plane.serve([FrameRequest(frame, "m") for frame in frames])
    assert report.wall_clock_s >= 0.3


# ----------------------------------------------------------------------
# Per-serve routing
# ----------------------------------------------------------------------
def test_each_serve_lists_only_its_own_routes():
    """A plane keeps no routes between serves: serving it twice with
    disjoint tenants, each report lists exactly its own stream's pairs,
    routed as a fresh plane routes them."""
    frames = np.random.default_rng(5).uniform(0.0, 1.0, (16, 1, 28, 28))

    def stream(tenants):
        return [
            FrameRequest(frames[i], "m", tenant=tenants[i % len(tenants)])
            for i in range(16)
        ]

    def fresh_plane():
        plane = ControlPlane(
            shards=3, nodes_per_shard=1, micro_batch=8, seed=0
        )
        plane.register_model("m", build_lenet(seed=0))
        return plane

    first_tenants = [f"a{i}" for i in range(8)]
    second_tenants = [f"b{i}" for i in range(8)]
    plane = fresh_plane()
    first = plane.serve(stream(first_tenants), offered_fps=900.0)
    second = plane.serve(stream(second_tenants), offered_fps=900.0)
    assert sorted(first.controlplane.routes) == [
        f"{tenant}|m" for tenant in first_tenants
    ]
    assert sorted(second.controlplane.routes) == [
        f"{tenant}|m" for tenant in second_tenants
    ]
    alone = fresh_plane().serve(stream(second_tenants), offered_fps=900.0)
    assert second.controlplane.routes == alone.controlplane.routes
    assert len(set(second.controlplane.routes.values())) > 1


@pytest.mark.parametrize("shards", [0, True, 2.5, "2"])
def test_shards_must_be_a_positive_count(shards):
    with pytest.raises(ValueError, match="shards must be an integer >= 1"):
        ControlPlane(shards=shards, nodes_per_shard=1)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: FrameServer(num_nodes=2.5), "num_nodes"),
        (lambda: FrameServer(num_nodes=True), "num_nodes"),
        (lambda: FrameServer(micro_batch=2.5), "micro_batch"),
        (lambda: ControlPlane(nodes_per_shard=2.5), "nodes_per_shard"),
        (lambda: ControlPlane(nodes_per_shard=True), "nodes_per_shard"),
        (lambda: ControlPlane(micro_batch=2.5), "micro_batch"),
        (lambda: AutoscalerConfig(max_nodes=2.5), "max_nodes"),
        (
            lambda: AutoscalerConfig(min_nodes=True, max_nodes=True),
            "min_nodes",
        ),
        (lambda: ChaosPlan.named("node-loss").schedule(2.5, 0), "num_nodes"),
    ],
    ids=[
        "server-nodes-float",
        "server-nodes-bool",
        "server-batch-float",
        "plane-nodes-float",
        "plane-nodes-bool",
        "plane-batch-float",
        "autoscaler-max-float",
        "autoscaler-bool",
        "chaos-schedule-float",
    ],
)
def test_counts_are_checked_as_counts(build, name):
    """A non-integral or boolean node or batch count raises a
    ``ValueError`` naming it at construction, not deep in a serve."""
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
        build()


# ----------------------------------------------------------------------
# node_limit: the prefix contract under the warm spares
# ----------------------------------------------------------------------
def test_node_limit_prefix_is_bit_identical_to_a_smaller_fleet():
    frames = np.random.default_rng(11).uniform(0.0, 1.0, (16, 1, 28, 28))
    requests = [FrameRequest(frame, "m") for frame in frames]

    big = FrameServer(num_nodes=4, micro_batch=8, seed=0)
    big.register_model("m", build_lenet(seed=0))
    limited = big.serve(
        [FrameRequest(frame, "m") for frame in frames],
        offered_fps=1200.0,
        node_limit=2,
    )

    small = FrameServer(num_nodes=2, micro_batch=8, seed=0)
    small.register_model("m", build_lenet(seed=0))
    plain = small.serve(requests, offered_fps=1200.0)

    assert limited.record() == plain.record()


@pytest.mark.parametrize(
    "layer",
    [
        dict(fault_profile="drift"),
        dict(chaos_plan="node-loss"),
        dict(retry_policy="deadline"),
        dict(spares=1),
        dict(brownout="standard"),
    ],
    ids=["fault-profile", "chaos-plan", "retry-policy", "spares", "brownout"],
)
def test_node_limit_validates_and_rejects_resilience_layers(layer):
    frame = np.zeros((1, 28, 28))
    plain = FrameServer(num_nodes=2, micro_batch=8, seed=0)
    plain.register_model("m", build_lenet(seed=0))
    with pytest.raises(ValueError, match=r"node_limit must be in \[1, 2\]"):
        plain.serve([FrameRequest(frame, "m")], node_limit=3)
    with pytest.raises(ValueError, match="node_limit"):
        plain.serve([FrameRequest(frame, "m")], node_limit=0)

    server = FrameServer(num_nodes=2, micro_batch=8, seed=0, **layer)
    server.register_model("m", build_lenet(seed=0))
    server.warmup()
    for node in server.nodes:
        node.free_at, node.frames = 1.5, 7
    stats = (server.cache.stats.hits, server.cache.stats.misses)
    with pytest.raises(ValueError, match="does not compose"):
        server.serve([FrameRequest(frame, "m")], node_limit=1)
    assert (server.cache.stats.hits, server.cache.stats.misses) == stats
    assert len(server.nodes) == 2
    assert all(
        (node.free_at, node.frames) == (1.5, 7) for node in server.nodes
    )


@pytest.mark.parametrize(
    "inert",
    [dict(fault_profile="none"), dict(spares=0)],
    ids=["fault-profile-none", "spares-0"],
)
def test_node_limit_serves_with_inert_layer_options(inert):
    frame = np.zeros((1, 28, 28))
    server = FrameServer(num_nodes=2, micro_batch=8, seed=0, **inert)
    server.register_model("m", build_lenet(seed=0))
    report = server.serve([FrameRequest(frame, "m")], node_limit=1)
    assert report.delivered == 1 and report.node_frames == {0: 1}
