"""``ServeReport.record()``: exact JSON that is equal exactly when two
serves are bit-identical."""

import dataclasses
import json

import numpy as np
import pytest

from repro.engine import FrameServer, build_scenario
from test_engine_controlplane import _autoscaled_plane

#: case -> (server layers, ``None`` for an autoscaled 2-shard plane; the
#: report parts the case fills).
CASES = {
    "plain": ({}, ("slo",)),
    "harsh": ({"fault_profile": "harsh"}, ("health", "slo")),
    "failover": (
        dict(
            chaos_plan="node-loss",
            retry_policy="deadline",
            spares=1,
            brownout="standard",
        ),
        ("health", "slo", "resilience", "brownout"),
    ),
    "autoscaled-plane": (None, ("slo", "controlplane")),
}


def _served(layers):
    scenario = build_scenario("chaos", frames=96, offered_fps=2400.0, seed=0)
    if layers is None:
        return _autoscaled_plane().serve_scenario(scenario)
    server = FrameServer(
        num_nodes=2, micro_batch=8, seed=0, policy="slo", **layers
    )
    return server.serve_scenario(scenario)


@pytest.mark.parametrize("case", sorted(CASES))
def test_record_round_trips_through_json(case):
    layers, parts = CASES[case]
    record = _served(layers).record()
    assert all(record[part] is not None for part in parts)
    assert json.loads(json.dumps(record)) == record


def _drop_last(responses):
    return responses[:-1]


def _nudge_one_ulp(responses):
    index = next(i for i, r in enumerate(responses) if r.output is not None)
    output = responses[index].output.copy()
    output.flat[0] = np.nextafter(output.flat[0], np.inf)
    responses = list(responses)
    responses[index] = responses[index]._replace(output=output)
    return responses


@pytest.mark.parametrize("perturb", [_drop_last, _nudge_one_ulp])
def test_record_sees_one_response_or_one_ulp(perturb):
    report = _served({})
    changed = dataclasses.replace(report, responses=perturb(report.responses))
    assert changed.record() != report.record()
