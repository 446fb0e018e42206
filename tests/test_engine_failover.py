"""Tests for repro.engine.failover — retry, warm spares, brownout tiers."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine import FrameServer
from repro.engine.admission import SloClass
from repro.engine.failover import (
    BROWNOUT_TIERS,
    BrownoutConfig,
    BrownoutController,
    FailoverCoordinator,
    ResilienceReport,
    RetryPolicy,
    SparePool,
    availability,
    recovery_time_s,
    retry_policy,
)
from repro.engine.workloads import build_scenario


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
def test_named_retry_policies_resolve():
    assert RetryPolicy.named("none") is None
    assert retry_policy(None) is None
    deadline = RetryPolicy.named("deadline")
    aggressive = RetryPolicy.named("aggressive")
    assert deadline.name == "deadline" and aggressive.name == "aggressive"
    assert aggressive.max_retries > deadline.max_retries
    assert retry_policy("deadline") == deadline
    assert retry_policy(deadline) is deadline
    with pytest.raises(ValueError, match="unknown retry policy"):
        RetryPolicy.named("hopeful")


def test_retry_delays_deterministic_and_backing_off():
    policy = RetryPolicy()
    # Hedged first attempt: exactly the detection delay, no jitter.
    assert policy.delay_s(7, 1, seed=0) == policy.detection_delay_s
    second = policy.delay_s(7, 2, seed=0)
    third = policy.delay_s(7, 3, seed=0)
    assert second > policy.detection_delay_s
    # Exponential growth dominates the ±25% jitter band.
    assert third > second
    # Deterministic per (seed, frame, attempt), independent draws per frame.
    assert policy.delay_s(7, 2, seed=0) == second
    assert policy.delay_s(8, 2, seed=0) != second
    assert policy.delay_s(7, 2, seed=1) != second


def test_retry_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter_frac=1.0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_base_s=0.0)


def _item(index=0, attempt=0, deadline_s=math.inf, cls="interactive"):
    return SimpleNamespace(
        index=index,
        attempt=attempt,
        deadline_s=deadline_s,
        slo=SloClass(name=cls, priority=2, deadline_s=0.008),
    )


def test_retry_gate_attempts_budget_and_deadline():
    coordinator = FailoverCoordinator(retry=RetryPolicy(max_retries=2), seed=0)
    for _ in range(4):
        coordinator.record_offered("interactive")
    # Attempts beyond max are abandoned.
    assert coordinator.retry_after_loss(_item(attempt=2), 0.0, 1e-3) is None
    # A retry that cannot meet the frame's deadline is abandoned up front.
    late = _item(deadline_s=1e-4)
    assert coordinator.retry_after_loss(late, 0.0, 1e-3) is None
    # A feasible retry is scheduled strictly after the failure instant.
    ok = coordinator.retry_after_loss(_item(), 0.05, 1e-5)
    assert ok is not None and ok > 0.05
    assert coordinator.report.retries_scheduled == 1


def test_retry_class_budget_denials():
    # budget = ceil(0.5 * 2 offered) = 1 retry for the class.
    coordinator = FailoverCoordinator(
        retry=RetryPolicy(class_budget_frac=0.5), seed=0
    )
    coordinator.record_offered("interactive")
    coordinator.record_offered("interactive")
    assert coordinator.retry_after_loss(_item(index=0), 0.0, 0.0) is not None
    assert coordinator.retry_after_loss(_item(index=1), 0.0, 0.0) is None
    assert coordinator.report.retry_budget_denials == 1
    # Another class has its own budget.
    assert (
        coordinator.retry_after_loss(_item(index=2, cls="batch"), 0.0, 0.0)
        is not None
    )


# ----------------------------------------------------------------------
# Brownout controller
# ----------------------------------------------------------------------
def test_brownout_config_validation():
    assert BrownoutConfig.named("none") is None
    assert BrownoutConfig.named("standard") == BrownoutConfig()
    with pytest.raises(ValueError, match="unknown brownout config"):
        BrownoutConfig.named("polite")
    with pytest.raises(ValueError):
        BrownoutConfig(enter_pressure=(1.0, 2.0, 3.0))  # wrong arity
    with pytest.raises(ValueError):
        BrownoutConfig(enter_pressure=(5.0, 2.5, 1.0, 0.5))  # decreasing
    with pytest.raises(ValueError):
        BrownoutConfig(exit_fraction=1.0)
    with pytest.raises(ValueError):
        BrownoutConfig(reduced_bits=8)


def test_brownout_pressure_signal():
    controller = BrownoutController()
    cfg = controller.config
    assert controller.pressure(cfg.pressure_ref_s, 0.0) == pytest.approx(1.0)
    assert controller.pressure(0.0, 0.5) == pytest.approx(
        cfg.capacity_weight * 0.5
    )
    # A dead fleet (infinite wait) saturates past the top entry bar.
    assert controller.pressure(math.inf, 1.0) > cfg.enter_pressure[-1]


def _escalate(controller, target_tier, start_s=0.0):
    """Feed saturating pressure until the controller reaches the tier."""
    now = start_s
    while controller.tier < target_tier:
        controller.observe(now, math.inf, 1.0)
        now += controller.config.dwell_s
    return now


def test_brownout_climbs_every_rung_and_applies_effects():
    controller = BrownoutController()
    interactive = SloClass(name="interactive", priority=2, deadline_s=0.008)
    best_effort = SloClass(name="best-effort", priority=0, max_queue_s=0.04)

    # Tier 0: everything admitted, bounds untouched.
    assert controller.admits(best_effort)
    assert controller.effective_max_queue_s(interactive) is None
    assert not controller.wants_reduced_bits

    _escalate(controller, 1)
    assert controller.tier == 1  # one rung per dwell window
    assert not controller.admits(best_effort)  # priority 0 shed
    assert controller.admits(interactive)

    _escalate(controller, 2)
    cfg = controller.config
    assert controller.effective_max_queue_s(interactive) == cfg.imposed_queue_s
    assert controller.effective_max_queue_s(best_effort) == min(
        0.04 * cfg.queue_tighten_factor, cfg.imposed_queue_s
    )

    _escalate(controller, 3)
    assert controller.wants_reduced_bits
    assert controller.admits(interactive)

    _escalate(controller, 4)
    assert BROWNOUT_TIERS[controller.tier] == "reject"
    assert not controller.admits(interactive)
    assert controller.report.peak_tier == 4
    assert [t.to_tier for t in controller.report.transitions] == [1, 2, 3, 4]


def test_brownout_hysteresis_exit_below_entry_bar():
    controller = BrownoutController()
    now = _escalate(controller, 1)
    cfg = controller.config
    entry = cfg.enter_pressure[0]
    # Pressure between exit and entry bars: the tier holds.
    held = entry * (cfg.exit_fraction + 1.0) / 2.0 * cfg.pressure_ref_s
    for _ in range(5):
        controller.observe(now, held, 0.0)
        now += cfg.dwell_s
    assert controller.tier == 1
    # Below the exit bar for a dwell window: de-escalates.
    for _ in range(3):
        controller.observe(now, 0.0, 0.0)
        now += cfg.dwell_s
    assert controller.tier == 0
    assert controller.report.transitions[-1].to_tier == 0


# ----------------------------------------------------------------------
# Resilience accounting
# ----------------------------------------------------------------------
def test_recovery_ratio_defaults_to_one_when_nothing_lost():
    report = ResilienceReport(retry_policy="none")
    assert report.recovery_ratio == 1.0
    report.frames_lost_in_flight = 2
    report.frames_recovered = 1
    assert report.recovery_ratio == 0.5


def test_recovery_time_none_without_loss_events():
    report = _serve(chaos_plan=None)
    assert recovery_time_s(report) is None
    assert availability(report) == pytest.approx(
        report.delivered / report.stream.frames
    )


# ----------------------------------------------------------------------
# End-to-end: chaos + failover through the server
# ----------------------------------------------------------------------
def _serve(frames=120, **kwargs):
    scenario = build_scenario(
        "chaos", frames=frames, offered_fps=2400.0, seed=0
    )
    server = FrameServer(
        num_nodes=2, micro_batch=8, seed=0, policy="slo", **kwargs
    )
    for key, model in scenario.models.items():
        server.register_model(key, model)
    server.warmup()
    return server.serve_scenario(scenario)


def test_retry_and_spares_recover_lost_frames():
    baseline = _serve(chaos_plan="node-loss")
    covered = _serve(
        chaos_plan="node-loss", retry_policy="deadline", spares=1
    )
    resilience = covered.resilience
    assert resilience is not None
    assert resilience.frames_lost_in_flight >= 1
    assert resilience.frames_recovered == resilience.frames_lost_in_flight
    assert resilience.frames_abandoned == 0
    assert resilience.spares_activated == 1
    assert resilience.wasted_energy_j > 0.0
    assert covered.delivered > baseline.delivered
    assert availability(covered) > availability(baseline)
    # Recovery: the first post-onset arrival is eventually delivered.
    assert recovery_time_s(covered) < math.inf
    assert recovery_time_s(baseline) is not None


def test_spare_activation_is_pure_cache_hits():
    """The spare adopts the failed die seed: zero extra cache misses."""
    calm = _serve(chaos_plan=None)
    covered = _serve(
        chaos_plan="node-loss", retry_policy="deadline", spares=1
    )
    assert covered.resilience.spares_activated == 1
    assert covered.cache_misses == calm.cache_misses
    assert covered.cache_hits > 0


def test_spares_trimmed_back_after_serve():
    scenario = build_scenario("chaos", frames=120, offered_fps=2400.0, seed=0)
    server = FrameServer(
        num_nodes=2, micro_batch=8, seed=0, policy="slo",
        chaos_plan="node-loss", retry_policy="deadline",
        spares=SparePool(count=1),
    )
    for key, model in scenario.models.items():
        server.register_model(key, model)
    server.warmup()
    report = server.serve_scenario(scenario)
    assert report.resilience.spares_activated == 1
    assert len(server.nodes) == 2  # warm spares live for one serve call
    # ... and the next serve call starts from the configured fleet again.
    second = server.serve_scenario(
        build_scenario("chaos", frames=120, offered_fps=2400.0, seed=0)
    )
    assert second.resilience.spares_activated == 1


def test_greedy_policy_takes_a_spare_without_a_queue():
    """A spare's bring-up pushes a node-free event; the drop-if-busy
    policy has no queue to pop, so the event must be a no-op."""
    scenario = build_scenario("chaos", frames=240, offered_fps=2400.0, seed=0)
    server = FrameServer(
        num_nodes=2, micro_batch=8, seed=0, chaos_plan="node-loss", spares=1
    )
    report = server.serve_scenario(scenario)
    assert report.resilience.spares_activated == 1
    assert report.stream.frames == 240
    assert report.node_frames[2] > 0  # the spare served frames


def test_failover_serving_is_deterministic():
    def digest(report):
        return [
            (r.index, r.node_id, r.served_model, r.event.dropped,
             repr(r.event.finish_s))
            for r in report.responses
        ]

    first = _serve(
        chaos_plan="node-loss", retry_policy="deadline", spares=1
    )
    second = _serve(
        chaos_plan="node-loss", retry_policy="deadline", spares=1
    )
    assert digest(first) == digest(second)
    assert repr(first.stream.total_energy_j) == repr(
        second.stream.total_energy_j
    )


def test_lost_frames_show_in_slo_accounting():
    report = _serve(chaos_plan="node-loss")
    assert report.slo is not None
    lost = sum(stats.lost for stats in report.slo.classes.values())
    assert lost >= 1


def test_brownout_engages_under_region_outage():
    report = _serve(
        frames=200, chaos_plan="region-outage", brownout="standard"
    )
    brownout = report.brownout
    assert brownout is not None
    assert brownout.peak_tier >= 1
    assert brownout.transitions
    assert brownout.shed_frames >= 1
    assert sum(brownout.frames_by_tier) == report.stream.frames


def test_brownout_reduced_bits_serves_real_variants():
    """A floor-level ladder forces tier 3: frames serve at reduced bits."""
    harsh = BrownoutConfig(
        enter_pressure=(0.01, 0.02, 0.03, 1e9),
        dwell_s=1e-4,
        capacity_weight=0.0,
        pressure_ref_s=1e-5,
    )
    report = _serve(frames=200, brownout=harsh)
    brownout = report.brownout
    assert brownout.peak_tier == 3
    assert brownout.reduced_bits_frames >= 1
    reduced = [
        r for r in report.responses
        if r.served_model and "@brownout" in r.served_model
    ]
    assert len(reduced) == brownout.reduced_bits_frames
    assert all(not r.dropped and r.output is not None for r in reduced)


def test_reduced_variants_hidden_from_model_keys():
    server = FrameServer(
        num_nodes=1, micro_batch=8, seed=0, brownout="standard"
    )
    scenario = build_scenario("chaos", frames=8, offered_fps=500.0, seed=0)
    for key, model in scenario.models.items():
        server.register_model(key, model)
    server.warmup()
    server.serve_scenario(scenario)
    assert all("@brownout" not in key for key in server.model_keys)


def test_disabled_failover_is_bit_identical_to_plain_server():
    frames = np.random.default_rng(11).uniform(0.0, 1.0, (32, 1, 28, 28))

    def run(**kwargs):
        from repro.nn.models import build_lenet

        server = FrameServer(num_nodes=2, micro_batch=8, seed=0, **kwargs)
        server.register_model("a", build_lenet(seed=0))
        return server.serve_frames(frames, "a", offered_fps=1200.0)

    plain = run()
    gated = run(retry_policy=None, spares=0, brownout=None)
    assert gated.resilience is None and gated.brownout is None
    assert plain.stream.total_energy_j == gated.stream.total_energy_j
    for left, right in zip(plain.responses, gated.responses):
        assert left.event == right.event
        if left.output is not None:
            np.testing.assert_array_equal(left.output, right.output)
