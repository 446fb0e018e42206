"""Scheduler determinism + bit-identity pinning of the default serving path.

The engine split (scheduler/admission/workloads) must leave the default
``FrameServer`` configuration — greedy policy, no SLO classes,
``fault_profile="none"`` — **bit-identical** to the pre-split (PR 4)
engine.  ``tests/goldens/serve_default.json`` was generated from that
engine and pins a projection of ``ServeReport.record()``: every
simulated-time field (arrival/start/finish/energy as exact ``repr``
floats), the scheduling decisions (node placements, remap events, cache
counters) and a SHA-256 over each delivered output tensor.

Regenerate only after an *intentional* numeric change with::

    PYTHONPATH=src python tests/test_engine_scheduler.py --write

and review the diff — this file changing is the review event.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "serve_default.json"
)


def _build_server(num_nodes: int):
    from repro.engine import FrameServer
    from repro.nn.models import build_lenet

    server = FrameServer(num_nodes=num_nodes, micro_batch=8, seed=0)
    server.register_model("model-a", build_lenet(seed=0))
    server.register_model("model-b", build_lenet(seed=1))
    return server


def _mixed_requests():
    """Blocks of 6 alternating between two models (remap-heavy stream)."""
    from repro.engine import FrameRequest

    frames = np.random.default_rng(42).uniform(0.0, 1.0, (48, 1, 28, 28))
    return [
        FrameRequest(frames[i], "model-a" if (i // 6) % 2 == 0 else "model-b")
        for i in range(48)
    ]


def _homogeneous_requests():
    from repro.engine import FrameRequest

    frames = np.random.default_rng(7).uniform(0.0, 1.0, (24, 1, 28, 28))
    return [FrameRequest(frame, "model-a") for frame in frames]


def _golden_view(report) -> dict:
    """The golden's projection of ``report.record()``: no layer parts, no
    ``served_model``, and ``health`` as a presence flag."""
    record = report.record()
    for part in ("slo", "resilience", "brownout", "controlplane"):
        del record[part]
    for response in record["responses"]:
        del response["served_model"]
    record["health"] = record["health"] is not None
    return record


def _capture() -> dict:
    """The two pinned default-path streams (remap-heavy + oversubscribed)."""
    mixed = _build_server(num_nodes=2).serve(_mixed_requests(), offered_fps=1800.0)
    oversub = _build_server(num_nodes=1).serve(
        _homogeneous_requests(), offered_fps=2500.0
    )
    return {
        "schema": 1,
        "mixed_two_nodes_1800fps": _golden_view(mixed),
        "oversubscribed_one_node_2500fps": _golden_view(oversub),
    }


def _text() -> str:
    """The golden's exact text, as :func:`write_golden` writes it."""
    return json.dumps(_capture(), indent=2) + "\n"


def test_default_path_bit_identical_to_pr4_engine():
    assert os.path.exists(GOLDEN_PATH), (
        "golden missing — run "
        "`PYTHONPATH=src python tests/test_engine_scheduler.py --write`"
    )
    with open(GOLDEN_PATH) as handle:
        expected = handle.read()
    assert _text() == expected, (
        "default serving path drifted from the pre-split engine; the "
        "facade/scheduler split must keep the default configuration "
        "bit-identical (regenerate the golden only for an intentional "
        "numeric change)"
    )


#: Fields that legitimately change under a warmed server: the serve-time
#: cache counters (warmup turns cold programs into hits), and the stream
#: energy total (a hit pays install/re-trim energy where the unwarmed
#: golden pays the cold mapping chain).  Everything else — placements,
#: event times, outputs, payloads — must match the golden exactly.
WARMUP_SENSITIVE_FIELDS = ("cache_hits", "cache_misses", "total_energy_j")


def test_warmup_serves_golden_stream():
    """A warmed 2-node server matches the unwarmed golden except the
    serve-time cache counters and energy total (warmup's job)."""
    server = _build_server(num_nodes=2)
    stats = server.warmup()
    assert stats["models"] == 2 and stats["nodes"] == 2
    warmed = _golden_view(server.serve(_mixed_requests(), offered_fps=1800.0))
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)["mixed_two_nodes_1800fps"]
    trimmed = {
        k: v for k, v in warmed.items() if k not in WARMUP_SENSITIVE_FIELDS
    }
    golden_trimmed = {
        k: v for k, v in golden.items() if k not in WARMUP_SENSITIVE_FIELDS
    }
    assert trimmed == golden_trimmed
    # The warmed server's serve does no more cold programs than the golden.
    assert warmed["cache_misses"] <= golden["cache_misses"]


# ----------------------------------------------------------------------
# Determinism: same seed + scenario -> identical ServeReport, per policy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["greedy", "edf", "slo"])
def test_serve_is_deterministic_per_policy(policy):
    from repro.engine import FrameServer, build_scenario

    def one_run():
        scenario = build_scenario(
            "mixed-tenants", frames=60, offered_fps=2600.0, seed=3
        )
        server = FrameServer(
            num_nodes=2, micro_batch=8, seed=3, policy=policy
        )
        return server.serve_scenario(scenario).record()

    assert one_run() == one_run()


def test_policies_diverge_on_the_same_stream():
    """The three policies are really different code paths, not aliases."""
    from repro.engine import FrameServer, build_scenario

    def placements(policy):
        scenario = build_scenario(
            "mixed-tenants", frames=160, offered_fps=3000.0, seed=0
        )
        server = FrameServer(num_nodes=2, micro_batch=8, seed=0, policy=policy)
        report = server.serve_scenario(scenario)
        return [
            (r.index, r.node_id, r.event.start_s) for r in report.responses
        ]

    greedy, edf, slo = (placements(p) for p in ("greedy", "edf", "slo"))
    assert greedy != edf
    assert edf != slo


# ----------------------------------------------------------------------
# Policy queue disciplines (unit level)
# ----------------------------------------------------------------------
def _item(index, tenant="t", priority=0, deadline=None, weight=1.0, arrival=0.0):
    from repro.engine.admission import SloClass
    from repro.engine.scheduler import QueuedFrame

    slo = SloClass(
        name=tenant,
        priority=priority,
        deadline_s=deadline,
        drop_policy="deadline",
        weight=weight,
    )
    return QueuedFrame(
        index=index,
        model_key=f"m-{tenant}",
        tenant=tenant,
        arrival_s=arrival,
        slo=slo,
        deadline_s=slo.absolute_deadline_s(arrival),
    )


def test_edf_orders_by_deadline_then_fifo():
    from repro.engine.scheduler import EarliestDeadlinePolicy

    policy = EarliestDeadlinePolicy()
    policy.reset()
    policy.enqueue(_item(0, deadline=0.05))
    policy.enqueue(_item(1, deadline=0.01))
    policy.enqueue(_item(2, deadline=0.01))  # same deadline: FIFO after 1
    policy.enqueue(_item(3))  # no deadline: sorts last
    order = [policy.pop_next(0.0).index for _ in range(4)]
    assert order == [1, 2, 0, 3]
    assert policy.pop_next(0.0) is None


def test_slo_policy_priority_tiers_preempt_weights():
    from repro.engine.scheduler import SloAwarePolicy

    policy = SloAwarePolicy()
    policy.reset()
    for i in range(3):
        policy.enqueue(_item(i, tenant="low", priority=0, weight=100.0))
    policy.enqueue(_item(10, tenant="high", priority=5, weight=0.1))
    first = policy.pop_next(0.0)
    assert first.tenant == "high"  # priority wins regardless of weight


def test_slo_policy_wfq_shares_within_a_tier():
    from repro.engine.scheduler import SloAwarePolicy

    policy = SloAwarePolicy()
    policy.reset()
    for i in range(30):
        policy.enqueue(_item(i, tenant="a", weight=3.0))
        policy.enqueue(_item(100 + i, tenant="b", weight=1.0))
    served = []
    for _ in range(24):
        item = policy.pop_next(0.0)
        policy.on_dispatched(item)
        served.append(item.tenant)
    # 3:1 weights -> tenant a gets ~3x the dispatches over any window.
    assert served.count("a") == 18
    assert served.count("b") == 6


def test_slo_policy_ties_break_deterministically():
    from repro.engine.scheduler import SloAwarePolicy

    policy = SloAwarePolicy()
    policy.reset()
    policy.enqueue(_item(0, tenant="zeta"))
    policy.enqueue(_item(1, tenant="alpha"))
    # Equal priority + equal (zero) virtual work: lexicographic tenant.
    assert policy.pop_next(0.0).tenant == "alpha"


def test_scheduling_policy_factory():
    from repro.engine.scheduler import (
        GreedyFifoPolicy,
        scheduling_policy,
    )

    assert scheduling_policy("greedy").name == "greedy"
    assert scheduling_policy("EDF").name == "edf"
    instance = GreedyFifoPolicy()
    assert scheduling_policy(instance) is instance
    with pytest.raises(ValueError, match="unknown scheduling policy"):
        scheduling_policy("fifo++")


# ----------------------------------------------------------------------
# Queueing semantics through the server
# ----------------------------------------------------------------------
def test_queueing_policy_delivers_what_greedy_drops():
    """A burst greedy must drop, a deadline-queueing policy absorbs."""
    from repro.engine import FrameRequest, FrameServer, SloClass
    from repro.nn.models import build_lenet

    frames = np.random.default_rng(0).uniform(0.0, 1.0, (12, 1, 28, 28))
    # 12 frames arriving nearly at once: one node can only take the first
    # few under drop-if-busy, but can clear all of them within 40 ms.
    requests = [
        FrameRequest(frames[i], "m", arrival_s=i * 1e-5) for i in range(12)
    ]
    classes = {
        "m": SloClass(name="q", deadline_s=0.04, drop_policy="deadline")
    }

    def serve(policy):
        server = FrameServer(
            num_nodes=1,
            micro_batch=8,
            seed=0,
            policy=policy,
            slo_classes=classes,
        )
        server.register_model("m", build_lenet(seed=0))
        return server.serve(requests, offered_fps=1000.0)

    greedy = serve("greedy")
    edf = serve("edf")
    assert greedy.stream.dropped > 0
    assert edf.stream.dropped == 0
    assert edf.delivered == 12
    # Queued frames start strictly after their arrival.
    waited = [
        e for e in edf.stream.events if e.start_s > e.arrival_s + 1e-9
    ]
    assert waited


def test_queued_frames_expire_at_their_deadline():
    from repro.engine import FrameRequest, FrameServer, SloClass
    from repro.nn.models import build_lenet

    frames = np.random.default_rng(0).uniform(0.0, 1.0, (10, 1, 28, 28))
    requests = [
        FrameRequest(frames[i], "m", arrival_s=i * 1e-5) for i in range(10)
    ]
    # ~1 ms service per frame: a 2.5 ms deadline admits only the first
    # few; the rest must expire in the queue, not linger.
    classes = {
        "m": SloClass(name="tight", deadline_s=0.0025, drop_policy="deadline")
    }
    server = FrameServer(
        num_nodes=1, micro_batch=8, seed=0, policy="edf", slo_classes=classes
    )
    server.register_model("m", build_lenet(seed=0))
    report = server.serve(requests, offered_fps=1000.0)
    stats = report.slo.classes["tight"]
    assert stats.expired > 0
    assert stats.delivered + stats.expired + stats.dropped_busy == 10
    # Expired frames never dispatched: their events carry no service span.
    expired_events = [
        e for e in report.stream.events if e.dropped
    ]
    assert all(e.start_s == e.finish_s == e.arrival_s for e in expired_events)
    # Accounting is complete: every delivered frame is a hit or a miss.
    assert stats.deadline_hits + stats.deadline_misses == stats.delivered


def test_queued_frames_survive_idle_node_recalibration():
    """A health recalibration that extends ``free_at`` outside a dispatch
    (here: a drift trip on an otherwise idle node) must still wake the
    queue — frames buffered during the outage dispatch at recovery
    instead of stranding until end-of-stream expiry."""
    from repro.engine import FrameRequest, FrameServer, SloClass
    from repro.engine.health import FaultProfile
    from repro.nn.models import build_lenet

    # drift 8 K/s against the 0.6 K EO trip budget -> watchdog re-trims
    # at the first arrival after t = 75 ms; the node sits idle then.
    profile = FaultProfile(name="drift-test", drift_k_per_s=8.0)
    frames = np.random.default_rng(0).uniform(0.0, 1.0, (4, 1, 28, 28))
    arrivals = [0.0, 0.076, 0.0765, 0.077]
    requests = [
        FrameRequest(frames[i], "m", arrival_s=arrivals[i]) for i in range(4)
    ]
    classes = {
        "m": SloClass(name="q", deadline_s=10.0, drop_policy="deadline")
    }
    server = FrameServer(
        num_nodes=1,
        micro_batch=8,
        seed=0,
        policy="edf",
        slo_classes=classes,
        fault_profile=profile,
    )
    server.register_model("m", build_lenet(seed=0))
    report = server.serve(requests, offered_fps=1000.0)
    trips = [e for e in report.health.events if e.kind == "drift-trip"]
    assert trips, "scenario must actually trip the drift watchdog"
    assert report.delivered == 4
    assert report.slo.classes["q"].expired == 0
    # The queued frames started after the recalibration finished.
    recovered = max(
        e.time_s for e in report.health.events if e.kind == "recalibrated"
    )
    queued = [e for e in report.stream.events if e.arrival_s > 0.05]
    assert all(e.start_s >= recovered - 1e-12 for e in queued)


def test_serve_scenario_adopts_classes_per_call():
    """A later scenario's SLO classes replace an earlier one's (and a
    class-less scenario serves best-effort again), the constructor's
    classes included."""
    from repro.engine import FrameServer, SloClass, build_scenario

    server = FrameServer(num_nodes=2, micro_batch=8, seed=0, policy="slo")
    first = server.serve_scenario(
        build_scenario("mixed-tenants", frames=20, offered_fps=1000.0, seed=0)
    )
    assert set(first.slo.classes) == {"interactive", "batch"}
    second = server.serve_scenario(
        build_scenario("poisson", frames=20, offered_fps=1000.0, seed=0)
    )
    assert set(second.slo.classes) == {"stream"}

    configured = FrameServer(
        num_nodes=2,
        micro_batch=8,
        seed=0,
        policy="slo",
        slo_classes={"lenet-4b": SloClass(name="own", deadline_s=0.5)},
    )
    report = configured.serve_scenario(
        build_scenario("mixed-tenants", frames=20, offered_fps=1000.0, seed=0)
    )
    assert report.record() == first.record()


def test_serve_scenario_rejects_conflicting_model_keys():
    """Same key, different kernel set (another seed) must not silently
    serve the stale weights."""
    from repro.engine import FrameServer, build_scenario

    server = FrameServer(num_nodes=1, micro_batch=8, seed=0)
    server.serve_scenario(
        build_scenario("poisson", frames=8, offered_fps=500.0, seed=0)
    )
    with pytest.raises(ValueError, match="redefines model key"):
        server.serve_scenario(
            build_scenario("poisson", frames=8, offered_fps=500.0, seed=1)
        )
    # Same seed -> same weights -> reuse is fine (kernel residency and
    # cache survive across calls).
    report = server.serve_scenario(
        build_scenario("poisson", frames=8, offered_fps=500.0, seed=0)
    )
    assert report.stream.frames == 8


def write_golden() -> None:
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as handle:
        handle.write(_text())
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from golden_cli import golden_main

    golden_main(write_golden, __doc__)
