"""Schedule-only serving: ``compute=False`` against full-compute oracles.

``FrameServer.serve(..., compute=False)`` runs admission, scheduling and
the health/chaos/failover layers exactly as a full serve does and skips
only the host-side logits.  Two oracles pin that:

* goldens captured from the full-compute engine for the analyses that
  now probe schedule-only — ``repr(CapacityReport.points)`` on both
  verdict branches (drop rate: ``CapacitySettings.fast()``; deadline hit
  rate + p99: a small ``poisson`` greedy/slo grid) and
  ``repr(ServingResilienceReport.rows)`` of the failover ladder;
* a live equivalence sweep: every registered scenario x greedy/edf/slo
  x {plain, chaos node-loss + deadline retry + one spare, harsh fault
  profile}, served on fresh same-seed servers with compute on and off.

Regenerate the goldens only after an intentional change to a simulated
quantity, with::

    PYTHONPATH=src python tests/test_schedule_only.py --write

and review the diff — these files changing is the review event.
"""

from __future__ import annotations

import functools
import os

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


def _capacity_fast_repr() -> str:
    from repro.analysis.capacity import CapacitySettings, build_capacity_report

    return repr(build_capacity_report(CapacitySettings.fast()).points)


def _capacity_poisson_repr() -> str:
    from repro.analysis.capacity import CapacitySettings, build_capacity_report

    settings = CapacitySettings(
        scenario="poisson",
        policies=("greedy", "slo"),
        node_counts=(1, 2),
        frames=48,
        search_iterations=3,
    )
    return repr(build_capacity_report(settings).points)


def _resilience_fast_repr() -> str:
    from repro.analysis.robustness_report import (
        ResilienceSettings,
        build_resilience_report,
    )

    return repr(build_resilience_report(ResilienceSettings.fast()).rows)


GOLDENS = {
    "capacity_fast_points.txt": _capacity_fast_repr,
    "capacity_poisson_points.txt": _capacity_poisson_repr,
    "resilience_fast_rows.txt": _resilience_fast_repr,
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_schedule_only_analyses_match_full_compute_goldens(name):
    path = os.path.join(GOLDEN_DIR, name)
    with open(path) as handle:
        expected = handle.read()
    assert GOLDENS[name]() + "\n" == expected, (
        f"{name} drifted from the full-compute golden; schedule-only "
        "probing must not change a simulated quantity"
    )


@functools.lru_cache(maxsize=None)
def _scenario(name: str):
    from repro.engine.workloads import build_scenario

    return build_scenario(name, frames=48, offered_fps=1500.0, seed=3)


#: Optional layers each equivalence case serves under.
LAYERS = {
    "plain": {},
    "failover": {"chaos_plan": "node-loss", "retry_policy": "deadline", "spares": 1},
    "harsh": {"fault_profile": "harsh"},
}


def _plan_view(report) -> tuple[str, ...]:
    """Everything a schedule-only serve must reproduce, as exact reprs."""
    placements = [
        (r.index, r.model_key, r.node_id, r.served_model, r.degraded)
        for r in report.responses
    ]
    return (
        repr(report.stream.events),
        repr(placements),
        repr(report.stream.total_energy_j),
        repr(sorted(report.node_frames.items())),
        repr((report.payload_bytes, report.radio_energy_j)),
        repr(report.slo),
        repr(report.health),
        repr(report.resilience),
        repr(report.brownout),
    )


def _equivalence_cases():
    from repro.engine.workloads import scenario_registry

    return [
        (scenario, policy, layer)
        for scenario in scenario_registry()
        for policy in ("greedy", "edf", "slo")
        for layer in LAYERS
    ]


@pytest.mark.parametrize("scenario,policy,layer", _equivalence_cases())
def test_schedule_only_equals_full_serve(scenario, policy, layer):
    from repro.engine import FrameServer

    reports = {}
    for compute in (True, False):
        server = FrameServer(
            num_nodes=2, micro_batch=8, seed=3, policy=policy, **LAYERS[layer]
        )
        reports[compute] = server.serve_scenario(
            _scenario(scenario), compute=compute
        )
    full, planned = reports[True], reports[False]
    assert _plan_view(planned) == _plan_view(full)
    assert all(response.output is None for response in planned.responses)
    assert all(
        (response.output is None) == response.dropped
        for response in full.responses
    )


def write_goldens() -> None:
    for name, build in sorted(GOLDENS.items()):
        path = os.path.join(GOLDEN_DIR, name)
        with open(path, "w") as handle:
            handle.write(build() + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from golden_cli import golden_main

    golden_main(write_goldens, __doc__)
