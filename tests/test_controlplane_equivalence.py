"""Differential tests: a trivial control plane IS the plain frame server.

The sharded control plane earns its complexity budget only if the
degenerate configuration — one shard, autoscaling off — serving its one
partition (the whole stream) through the plane's route-serve-merge path
changes **nothing** against the underlying
:class:`~repro.engine.server.FrameServer`: same floats, same per-die
read-noise RNG consumption, same cache hit/miss counters, same SLO
accounting.  These
tests pin that claim differentially over the whole scenario zoo under
every scheduling policy, and then pin the absolute anchor: the 1-shard
plane must reproduce the committed ``serve_default.json`` golden byte
for byte.
"""

import json
import os

import numpy as np
import pytest

from repro.engine import ControlPlane, FrameRequest, FrameServer
from repro.engine.workloads import build_scenario, scenario_registry
from repro.nn.models import build_lenet
from test_engine_scheduler import _golden_view

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "goldens", "serve_default.json"
)


# ----------------------------------------------------------------------
# Differential equivalence over the scenario zoo
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["greedy", "edf", "slo"])
@pytest.mark.parametrize("key", scenario_registry())
def test_one_shard_plane_matches_plain_server(key, policy):
    scenario = build_scenario(key, frames=36, offered_fps=1500.0, seed=0)
    plane = ControlPlane(
        shards=1, nodes_per_shard=2, micro_batch=8, seed=0, policy=policy
    )
    plane_report = plane.serve_scenario(scenario)

    scenario_again = build_scenario(key, frames=36, offered_fps=1500.0, seed=0)
    server = FrameServer(num_nodes=2, micro_batch=8, seed=0, policy=policy)
    server_report = server.serve_scenario(scenario_again)

    assert plane_report.record() | {"controlplane": None} == (
        server_report.record()
    )
    # The plane annotates its report but never autoscales here.
    assert plane_report.controlplane is not None
    assert plane_report.controlplane.autoscaled is False
    assert list(plane_report.controlplane.decisions) == []


def test_one_shard_plane_matches_explicit_request_stream():
    """Raw ``serve`` (no scenario wrapper) is equally unchanged."""
    frames = np.random.default_rng(7).uniform(0.0, 1.0, (24, 1, 28, 28))
    model = build_lenet(seed=3)

    plane = ControlPlane(shards=1, nodes_per_shard=2, micro_batch=8, seed=0)
    plane.register_model("m", model)
    plane_report = plane.serve(
        [FrameRequest(frame, "m") for frame in frames], offered_fps=1200.0
    )

    server = FrameServer(num_nodes=2, micro_batch=8, seed=0)
    server.register_model("m", build_lenet(seed=3))
    server_report = server.serve(
        [FrameRequest(frame, "m") for frame in frames], offered_fps=1200.0
    )
    assert plane_report.record() | {"controlplane": None} == (
        server_report.record()
    )


# ----------------------------------------------------------------------
# Absolute anchor: the committed serving golden
# ----------------------------------------------------------------------
def test_one_shard_plane_reproduces_serve_default_golden():
    """Byte-for-byte identity with ``tests/goldens/serve_default.json``.

    Same projection as ``tests/test_engine_scheduler.py`` writes, but
    the stream runs through a 1-shard, autoscale-off control plane: the
    control plane may not perturb the pinned default path even by one
    ULP, one cache counter, or one payload byte.
    """
    plane = ControlPlane(shards=1, nodes_per_shard=2, micro_batch=8, seed=0)
    plane.register_model("model-a", build_lenet(seed=0))
    plane.register_model("model-b", build_lenet(seed=1))
    frames = np.random.default_rng(42).uniform(0.0, 1.0, (48, 1, 28, 28))
    requests = [
        FrameRequest(frames[i], "model-a" if (i // 6) % 2 == 0 else "model-b")
        for i in range(48)
    ]
    report = plane.serve(requests, offered_fps=1800.0)
    with open(GOLDEN_PATH) as handle:
        expected = json.load(handle)
    assert _golden_view(report) == expected["mixed_two_nodes_1800fps"]
