"""Tests for repro.engine.health — degraded serving + online recalibration."""

import numpy as np
import pytest

from repro.engine import (
    FaultProfile,
    FrameServer,
    SnrWatchdog,
    WeightProgramCache,
)
from repro.core.config import OISAConfig
from repro.core.opc import KernelSet, OpticalProcessingCore
from repro.engine.health import RECALIBRATION_LATENCY_S
from repro.nn.models import build_lenet, build_mlp
from repro.nn.quant import UniformWeightQuantizer
from repro.sim.faults import FaultSpec, FaultyOpticalCore


@pytest.fixture
def frames():
    return np.random.default_rng(5).uniform(0.0, 1.0, (200, 1, 28, 28))


def _server(profile, num_nodes=2, seed=0):
    server = FrameServer(
        num_nodes=num_nodes, micro_batch=8, seed=seed, fault_profile=profile
    )
    server.register_model("a", build_lenet(seed=0))
    return server


UPSET_PROFILE = FaultProfile(
    name="test-upset",
    fault_spec=FaultSpec(dead_mr_rate=0.3, bpd_gain_sigma=0.15),
    fault_onset_s=0.03,
    node_stagger_s=0.015,
)


# ----------------------------------------------------------------------
# Profiles
# ----------------------------------------------------------------------
def test_named_profiles_resolve():
    assert FaultProfile.named("none") is None
    for name in ("drift", "transient", "harsh"):
        profile = FaultProfile.named(name)
        assert profile is not None and profile.active
    with pytest.raises(ValueError, match="unknown fault profile"):
        FaultProfile.named("catastrophic")


def test_profile_validation():
    with pytest.raises(ValueError):
        FaultProfile(fault_onset_s=-1.0)
    assert not FaultProfile().active  # no upsets, no drift


def test_inactive_profile_collapses_to_no_monitoring(frames):
    server = _server(FaultProfile(name="inert"))
    assert server.fault_profile is None
    report = server.serve_frames(frames[:16], "a", offered_fps=500.0)
    assert report.health is None


# ----------------------------------------------------------------------
# Profile "none" bit-identity
# ----------------------------------------------------------------------
def test_profile_none_serving_is_bit_identical(frames):
    plain = _server(None)
    none = _server("none")
    report_plain = plain.serve_frames(frames[:48], "a", offered_fps=1000.0)
    report_none = none.serve_frames(frames[:48], "a", offered_fps=1000.0)
    assert report_none.record() == report_plain.record()


def test_health_events_carry_no_host_cache_count():
    """A warmed unrelated model leaves more cached programs for each
    recalibration to drop; the count is a cache counter, not event text."""
    frames = np.random.default_rng(5).uniform(0.0, 1.0, (400, 1, 28, 28))
    fresh = _server("transient")
    warmed = _server("transient")
    warmed.register_model("other", build_lenet(seed=1))
    warmed.warmup(["other"])
    first, second = (
        server.serve_frames(frames, "a") for server in (fresh, warmed)
    )
    assert first.health.recalibrations >= 1
    assert second.record() == first.record()
    assert warmed.cache.stats.invalidations > fresh.cache.stats.invalidations


# ----------------------------------------------------------------------
# Mid-stream faults: deterministic served-accuracy impact
# ----------------------------------------------------------------------
def test_mid_stream_fault_changes_outputs_deterministically(frames):
    healthy = _server(None).serve_frames(frames, "a", offered_fps=1000.0)
    first = _server(UPSET_PROFILE).serve_frames(frames, "a", offered_fps=1000.0)
    second = _server(UPSET_PROFILE).serve_frames(frames, "a", offered_fps=1000.0)

    degraded = [resp.index for resp in first.responses if resp.degraded]
    assert degraded, "the upset window must cover at least one frame"
    # Degraded frames diverge from the healthy stream...
    for index in degraded:
        assert not np.array_equal(
            first.responses[index].output, healthy.responses[index].output
        )
    # ...and the whole degraded stream is reproducible bit-for-bit.
    assert first.record() == second.record()


def test_health_report_counters(frames):
    report = _server(UPSET_PROFILE).serve_frames(frames, "a", offered_fps=1000.0)
    health = report.health
    assert health.profile == "test-upset"
    assert health.upsets == 2  # one per node (staggered onsets)
    assert health.recalibrations == 2
    assert health.degraded_frames == sum(r.degraded for r in report.responses)
    assert health.healthy_frames == report.delivered - health.degraded_frames
    assert 0.0 < health.degraded_fraction < 1.0
    kinds = [e.kind for e in health.events]
    assert kinds.count("watchdog-trip") == 2
    # Trips carry the equivalent-bit diagnosis.
    trip = next(e for e in health.events if e.kind == "watchdog-trip")
    assert "equivalent bits" in trip.detail


# ----------------------------------------------------------------------
# Online recalibration: bit-identical program recovery
# ----------------------------------------------------------------------
@pytest.mark.parametrize("calibrated", [False, True])
def test_recovery_restores_bit_identical_programs(frames, calibrated):
    profile = FaultProfile(
        name="test-recovery",
        fault_spec=UPSET_PROFILE.fault_spec,
        fault_onset_s=0.03,
        node_stagger_s=0.015,
        calibrated=calibrated,
    )
    server = _server(profile)
    server.warmup(frame_shape=(1, 28, 28))
    pre_fault = {
        node.node_id: node.opc.programmed.realized.copy()
        for node in server.nodes
    }
    invalidations0 = server.cache.stats.invalidations

    report = server.serve_frames(frames, "a", offered_fps=1000.0)
    assert report.health.recalibrations == 2
    assert server.cache.stats.invalidations > invalidations0

    # The post-recovery reprogram (a cache miss re-running the mapping
    # chain) must land exactly on the pre-fault realized weights.
    for node in server.nodes:
        node.activate(server._models["a"])
        np.testing.assert_array_equal(
            node.opc.programmed.realized, pre_fault[node.node_id]
        )


def test_recalibrating_node_is_routed_around(frames):
    """While one node recalibrates, the survivor serves the stream."""
    profile = FaultProfile(
        name="test-routing",
        fault_spec=FaultSpec(dead_mr_rate=0.5),
        fault_onset_s=0.05,
        node_stagger_s=10.0,  # only node 0 faults within the stream
    )
    server = _server(profile)
    report = server.serve_frames(frames, "a", offered_fps=1000.0)
    health = report.health
    assert health.recalibrations == 1
    trip = next(e for e in health.events if e.kind.endswith("-trip"))
    done = next(e for e in health.events if e.kind == "recalibrated")
    assert done.time_s - trip.time_s == pytest.approx(RECALIBRATION_LATENCY_S)
    # Every frame arriving inside the recalibration window (5 ms at
    # 1000 FPS) lands on node 1.
    in_window = [
        resp
        for resp in report.responses
        if trip.time_s <= resp.event.arrival_s < done.time_s
        and not resp.dropped
    ]
    assert len(in_window) == 5
    assert all(resp.node_id == 1 for resp in in_window)


def test_repeated_upsets_keep_tripping_the_watchdog():
    """A recalibrated node must stay monitorable: upset #2 also recovers.

    Regression: after the first recalibration wiped ``programmed_model``,
    the watchdog used to go blind for the rest of the stream and later
    upsets served degraded frames forever.
    """
    profile = FaultProfile(
        name="test-repeat",
        fault_spec=FaultSpec(dead_mr_rate=0.5),
        fault_onset_s=0.03,
        fault_every_s=0.1,
    )
    server = _server(profile, num_nodes=1)
    frames = np.random.default_rng(5).uniform(0.0, 1.0, (300, 1, 28, 28))
    report = server.serve_frames(frames, "a", offered_fps=1000.0)
    health = report.health
    assert health.upsets >= 2
    assert health.recalibrations >= 2
    # Every upset is eventually answered: the stream never ends degraded.
    assert not report.responses[-1].degraded
    assert health.degraded_frames < report.delivered / 2


def test_watchdog_sees_dead_vcsel_faults():
    """Dead input wavelengths must register in the monitored weight error."""
    quantizer = UniformWeightQuantizer(4)
    weights = np.random.default_rng(2).normal(size=(8, 3, 3, 3)) * 0.1
    opc = OpticalProcessingCore(seed=0, enable_read_noise=False)
    opc.program(quantizer.quantize(weights), quantizer.scale(weights))
    faulty = FaultyOpticalCore.from_programmed(
        opc, FaultSpec(dead_vcsel_rate=1.0), seed=3
    )
    assert faulty.weight_error_relative > 0.0
    assert SnrWatchdog(OISAConfig()).trips(faulty.weight_error_relative)


def test_drift_profile_forces_thermal_retrims(frames):
    server = _server(FaultProfile(name="test-drift", drift_k_per_s=8.0))
    report = server.serve_frames(frames, "a", offered_fps=1000.0)
    health = report.health
    assert any(e.kind == "drift-trip" for e in health.events)
    assert health.recalibrations >= 1
    assert health.peak_drift_k > 0.0
    # Drift degrades availability (re-trim downtime), never output bits.
    assert health.degraded_frames == 0


def test_dense_models_serve_under_faults():
    server = FrameServer(
        num_nodes=1, micro_batch=8, seed=0, fault_profile=UPSET_PROFILE
    )
    server.register_model(
        "mlp", build_mlp(in_features=64, hidden=(16,), num_classes=4, seed=0)
    )
    frames = np.random.default_rng(8).uniform(0, 1, (120, 1, 8, 8))
    report = server.serve_frames(frames, "mlp", offered_fps=1000.0)
    assert report.health.upsets >= 1
    degraded = [r for r in report.responses if r.degraded]
    assert degraded and all(r.output.shape == (4,) for r in degraded)


# ----------------------------------------------------------------------
# Monitor under queueing policies + the reference-path pin
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["edf", "slo"])
def test_monitor_runs_under_queueing_policies(policy):
    """Health monitoring is policy-agnostic: the edf/slo queueing paths
    see the same deterministic fault cycle as greedy."""
    from repro.engine.workloads import build_scenario

    def run():
        scenario = build_scenario(
            "poisson", frames=200, offered_fps=1000.0, seed=0
        )
        server = FrameServer(
            num_nodes=2,
            micro_batch=8,
            seed=0,
            policy=policy,
            fault_profile=UPSET_PROFILE,
        )
        for key, model in scenario.models.items():
            server.register_model(key, model)
        server.warmup()
        return server.serve_scenario(scenario)

    first = run()
    health = first.health
    assert health is not None
    assert health.upsets >= 1 and health.recalibrations >= 1
    assert run().record() == first.record()


# ----------------------------------------------------------------------
# SnrWatchdog
# ----------------------------------------------------------------------
def test_watchdog_bit_arithmetic():
    watchdog = SnrWatchdog(OISAConfig())
    assert watchdog.required_bits == 4.0
    assert watchdog.optical_bits > 4.0  # the paper's §III headroom claim
    # Zero error resolves the full optical ENOB; a half-LSB-at-4-bit error
    # (2^-5 of full scale) sits exactly at 4.0 equivalent bits.
    assert watchdog.equivalent_bits(0.0) == watchdog.optical_bits
    assert watchdog.equivalent_bits(2.0**-5) == pytest.approx(4.0)
    assert not watchdog.trips(2.0**-5)
    assert watchdog.trips(2.0**-4)


# ----------------------------------------------------------------------
# Cache invalidation
# ----------------------------------------------------------------------
def test_cache_invalidate_die_scopes_to_one_seed():
    cache = WeightProgramCache()
    quantizer = UniformWeightQuantizer(4)
    weights = np.random.default_rng(0).normal(size=(8, 1, 3, 3)) * 0.1
    kernels = KernelSet.build(quantizer.quantize(weights), quantizer.scale(weights))
    die_a = OpticalProcessingCore(seed=1)
    die_b = OpticalProcessingCore(seed=2)
    cache.get_or_program(die_a, kernels)
    cache.get_or_program(die_b, kernels)

    assert cache.invalidate_die(1) == 1
    assert len(cache) == 1
    assert cache.stats.invalidations == 1
    _, hit_b = cache.get_or_program(die_b, kernels)
    assert hit_b  # the other die's program survived
    _, hit_a = cache.get_or_program(die_a, kernels)
    assert not hit_a  # the invalidated die reprograms
    assert cache.invalidate_die(99) == 0


def test_faulty_core_from_programmed_matches_program_path():
    """Both constructions freeze identical patterns for the same seed."""
    quantizer = UniformWeightQuantizer(4)
    weights = np.random.default_rng(2).normal(size=(8, 3, 3, 3)) * 0.1
    quantized, scale = quantizer.quantize(weights), quantizer.scale(weights)
    spec = FaultSpec(dead_mr_rate=0.2, bpd_gain_sigma=0.1)

    via_program = FaultyOpticalCore(
        OpticalProcessingCore(seed=0, enable_read_noise=False), spec, seed=3
    )
    via_program.program(quantized, scale)

    pre_programmed = OpticalProcessingCore(seed=0, enable_read_noise=False)
    pre_programmed.program(quantized, scale)
    wrapped = FaultyOpticalCore.from_programmed(pre_programmed, spec, seed=3)

    np.testing.assert_array_equal(
        via_program._weight_mask, wrapped._weight_mask
    )
    x = np.random.default_rng(4).choice([0.0, 0.5, 1.0], size=(2, 3, 10, 10))
    np.testing.assert_array_equal(
        via_program.convolve(x, padding=1), wrapped.convolve(x, padding=1)
    )
    assert wrapped.weight_error_relative > 0.0
