"""Simulated-time serving benches, pinned as exact goldens.

The serving-side claims run on the simulated clock, so these payloads
are deterministic model outputs, not host timings:

* ``bench_serving.json`` — on ``mixed-tenants``, SLO-aware scheduling
  beats greedy-FIFO on the interactive tenant's deadline-hit rate;
* ``bench_degraded.json`` — through the ``transient`` fault profile, a
  1000 FPS stream recovers >= 90 % of its pre-fault throughput;
* ``bench_chaos.json`` — under ``node-loss``, retry+spares holds the
  interactive deadline-hit rate >= 0.95;
* ``bench_controlplane.json`` — autoscaled shards match the static
  fleet's hit rate at >= 25 % fewer node-seconds.

Each payload is regenerated and compared byte for byte with its golden,
and each headline bound is asserted on the committed golden, so a
regeneration that breaks a claim fails too.  Regenerate the goldens only
after an intentional change to a simulated quantity, with::

    PYTHONPATH=src python tests/test_simulated_benches.py --write

and review the diff — these files changing is the review event.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

#: Deadline-hit floor the failover rung must hold through the outage.
SLO_TARGET = 0.95
#: How far the autoscaled interactive hit rate may trail the static one.
HIT_TOLERANCE = 0.005
#: Share of the static fleet's node-seconds the autoscaler must save.
SAVINGS_FLOOR = 0.25


def _serving() -> dict:
    """Serve the mixed-tenant burst scenario under every policy."""
    from repro.engine import FrameServer
    from repro.engine.workloads import MIXED_TENANT_CLASSES, build_scenario

    fields = ("offered", "delivered", "hit_rate", "p99_latency_s")
    fields += ("dropped_busy", "shed", "expired")
    policies = {}
    for policy in ("greedy", "edf", "slo"):
        scenario = build_scenario(
            "mixed-tenants", frames=300, offered_fps=2600.0, seed=0
        )
        server = FrameServer(num_nodes=2, micro_batch=8, seed=0, policy=policy)
        report = server.serve_scenario(scenario)
        policies[policy] = {
            **{
                name: {f: getattr(report.slo.classes[name], f) for f in fields}
                for name in ("interactive", "batch")
            },
            "overall_hit_rate": report.slo.overall_hit_rate,
            "drop_rate": report.stream.drop_rate,
            "total_energy_j": report.stream.total_energy_j,
        }
    return {
        "bench": "serving_policies",
        "schema": 1,
        "scenario": "mixed-tenants",
        "offered_fps": 2600.0,
        "num_nodes": 2,
        "frames": 300,
        "interactive_deadline_s": MIXED_TENANT_CLASSES["lenet-4b"].deadline_s,
        "policies": policies,
        "slo_vs_greedy_hit_gain": (
            policies["slo"]["interactive"]["hit_rate"]
            - policies["greedy"]["interactive"]["hit_rate"]
        ),
    }


def _degraded() -> dict:
    """Delivered FPS before, during and after the fault cycle."""
    from repro.engine import FrameServer
    from repro.nn.models import build_lenet

    fps = 1000.0
    server = FrameServer(
        num_nodes=2, micro_batch=8, seed=0, fault_profile="transient"
    )
    server.register_model("model-a", build_lenet(seed=0))
    server.warmup(frame_shape=(1, 28, 28))
    stack = np.random.default_rng(0).uniform(0.0, 1.0, (400, 1, 28, 28))
    report = server.serve_frames(stack, "model-a", offered_fps=fps)

    health, events = report.health, report.stream.events
    upsets = [e.time_s for e in health.events if e.kind == "upset"]
    recals = [e.time_s for e in health.events if e.kind == "recalibrated"]
    fault_start, recovered_at = min(upsets), max(recals)

    def window_fps(start, end):
        n = sum(not e.dropped and start <= e.arrival_s < end for e in events)
        return n / (end - start) if end > start else 0.0

    pre_fps = window_fps(0.0, fault_start)
    post_fps = window_fps(recovered_at, events[-1].arrival_s + 1.0 / fps)
    return {
        "bench": "degraded_serving",
        "schema": 1,
        "profile": "transient",
        "frames": 400,
        "offered_fps": fps,
        "fault_start_s": fault_start,
        "recovered_at_s": recovered_at,
        "pre_fault_fps": pre_fps,
        "degraded_fps": window_fps(fault_start, recovered_at),
        "recovered_fps": post_fps,
        "recovery_ratio": post_fps / pre_fps if pre_fps > 0 else 0.0,
        "upsets": health.upsets,
        "recalibrations": health.recalibrations,
        "degraded_frames": health.degraded_frames,
        "degraded_fraction": health.degraded_fraction,
        "dropped": report.stream.dropped,
        "cache_invalidations": server.cache.stats.invalidations,
    }


def _chaos() -> dict:
    """One pass of the failover ladder at its default operating point."""
    from repro.analysis.robustness_report import (
        ResilienceSettings,
        build_resilience_report,
    )

    report = build_resilience_report(ResilienceSettings())
    rows = [dataclasses.asdict(row) for row in report.rows]
    by_label = {row["label"]: row for row in rows}
    baseline, failover = by_label["no-failover"], by_label["retry+spares"]
    lost = failover["frames_lost_in_flight"]
    settings = ("chaos_plan", "scenario", "frames", "offered_fps", "num_nodes")
    settings += ("spares", "retry_policy", "policy", "seed")
    return {
        "bench": "chaos",
        "schema": 1,
        **{field: getattr(report.settings, field) for field in settings},
        "slo_target": SLO_TARGET,
        "rows": rows,
        "baseline_interactive_hit_rate": baseline["interactive_hit_rate"],
        "failover_interactive_hit_rate": failover["interactive_hit_rate"],
        "baseline_availability": baseline["availability"],
        "failover_availability": failover["availability"],
        "failover_recovery_ratio": (
            failover["frames_recovered"] / lost if lost else 1.0
        ),
    }


def _controlplane() -> dict:
    """The same diurnal stream, autoscaled and on a static full fleet."""
    from repro.engine import AutoscalerConfig, ControlPlane, build_scenario

    config = AutoscalerConfig(window_s=0.01, min_nodes=1, max_nodes=3)

    def serve(autoscaler):
        scenario = build_scenario(
            "diurnal-regions", frames=600, offered_fps=800.0, seed=0
        )
        plane = ControlPlane(
            shards=3, nodes_per_shard=config.max_nodes, micro_batch=8, seed=0,
            policy="greedy", router="rendezvous", autoscaler=autoscaler,
        )
        return plane.serve_scenario(scenario, placement="partition")

    autoscaled, static = serve(config), serve(None)

    plane = autoscaled.controlplane
    trail = hashlib.sha256(plane.decision_trail().encode()).hexdigest()
    autoscaled_hit = autoscaled.slo.classes["interactive"].hit_rate
    static_hit = static.slo.classes["interactive"].hit_rate
    return {
        "bench": "controlplane",
        "schema": 1,
        "scenario": "diurnal-regions",
        "frames": 600,
        "offered_fps": 800.0,
        "shards": 3,
        "min_nodes": config.min_nodes,
        "max_nodes": config.max_nodes,
        "window_s": config.window_s,
        "router": "rendezvous",
        "policy": "greedy",
        "placement": "partition",
        "seed": 0,
        "hit_tolerance": HIT_TOLERANCE,
        "savings_floor": SAVINGS_FLOOR,
        "autoscaled_interactive_hit_rate": autoscaled_hit,
        "static_interactive_hit_rate": static_hit,
        "interactive_hit_delta": autoscaled_hit - static_hit,
        "autoscaled_batch_hit_rate": autoscaled.slo.classes["batch"].hit_rate,
        "static_batch_hit_rate": static.slo.classes["batch"].hit_rate,
        "node_seconds": plane.node_seconds,
        "static_node_seconds": plane.static_node_seconds,
        "node_seconds_saved_frac": plane.node_seconds_saved_frac,
        "windows": plane.windows,
        "scaling_decisions": len(plane.decisions),
        "decision_trail_sha256": trail,
        "routes": plane.routes,
    }


GOLDENS = {
    "bench_serving.json": _serving,
    "bench_degraded.json": _degraded,
    "bench_chaos.json": _chaos,
    "bench_controlplane.json": _controlplane,
}


def _text(name: str) -> str:
    """One golden's exact text: strict JSON, NaN stored as ``null``."""
    from repro.analysis.perf import sanitize_bench_payload

    payload = sanitize_bench_payload(GOLDENS[name]())
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _committed(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name)) as handle:
        return handle.read()


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_bench_matches_golden(name):
    assert _text(name) == _committed(name), (
        f"{name} drifted: a simulated-time serving quantity changed"
    )


def test_slo_policy_beats_greedy_on_the_interactive_tenant():
    golden = json.loads(_committed("bench_serving.json"))
    greedy, slo = golden["policies"]["greedy"], golden["policies"]["slo"]
    assert slo["interactive"]["hit_rate"] > greedy["interactive"]["hit_rate"]
    assert slo["interactive"]["hit_rate"] >= 0.99
    # null means zero frames delivered: fail, don't compare.
    assert slo["interactive"]["p99_latency_s"] is not None
    assert slo["interactive"]["p99_latency_s"] <= golden["interactive_deadline_s"]
    # The burst stresses the fleet: greedy drops, SLO sheds or expires batch.
    assert greedy["drop_rate"] > 0.0
    assert greedy["interactive"]["dropped_busy"] > 0
    assert slo["batch"]["shed"] + slo["batch"]["expired"] > 0


def test_watchdog_recovers_90pct_throughput():
    golden = json.loads(_committed("bench_degraded.json"))
    assert golden["recalibrations"] >= 1
    assert golden["recovery_ratio"] >= 0.9
    # The fault cycle is real: upsets fired and frames ran degraded.
    assert golden["upsets"] >= 1
    assert golden["degraded_frames"] >= 1
    assert golden["cache_invalidations"] >= 1


def test_failover_holds_interactive_slo_through_node_loss():
    golden = json.loads(_committed("bench_chaos.json"))
    failover_hit = golden["failover_interactive_hit_rate"]
    assert failover_hit >= SLO_TARGET
    # The chaos bites: no failover is measurably worse.
    assert golden["baseline_interactive_hit_rate"] < failover_hit - 0.05
    assert golden["baseline_availability"] < golden["failover_availability"] - 0.05
    spares = {row["label"]: row for row in golden["rows"]}["retry+spares"]
    assert spares["frames_lost_in_flight"] >= 1
    assert spares["frames_recovered"] >= 1
    assert spares["spares_activated"] >= 1


def test_autoscaler_tracks_the_static_fleet_at_lower_cost():
    golden = json.loads(_committed("bench_controlplane.json"))
    assert golden["interactive_hit_delta"] >= -HIT_TOLERANCE
    assert golden["node_seconds_saved_frac"] >= SAVINGS_FLOOR
    assert golden["scaling_decisions"] >= 1
    assert golden["node_seconds"] < golden["static_node_seconds"]


def write_goldens() -> None:
    for name in sorted(GOLDENS):
        path = os.path.join(GOLDEN_DIR, name)
        with open(path, "w") as handle:
            handle.write(_text(name))
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from golden_cli import golden_main

    golden_main(write_goldens, __doc__)
