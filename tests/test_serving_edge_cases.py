"""Serving edge cases: zero-delivered SLO accounting, deterministic
stream merging, and strict bench JSON.

A class that delivers nothing must report NaN percentiles (serialized
as ``null``) and zero hit rates instead of crashing; equal-arrival
requests merge on an explicit ``(arrival_s, tenant, index)`` key; and
every bench payload must survive a strict ``json.loads``.
"""

import json
import math

import numpy as np
import pytest

from repro.analysis.perf import (
    sanitize_bench_payload,
    would_clobber_full_bench,
    write_bench,
)
from repro.engine import FrameRequest, FrameServer
from repro.engine.admission import SloClass
from repro.engine.workloads import _interleave
from repro.sim.stream import StreamEvent, StreamReport


def _reject_constant(name):
    raise AssertionError(f"non-JSON constant {name!r} leaked into payload")


# ----------------------------------------------------------------------
# Zero-delivered-frames edge
# ----------------------------------------------------------------------
def _starved_report(policy: str):
    """Serve a stream whose "starved" class delivers zero frames.

    One model-a frame occupies the single node; the model-b frames arrive
    during its service window with a microsecond deadline — greedy
    busy-drops them, the queueing policies expire them, and either way
    the class delivers nothing.
    """
    from repro.nn.models import build_lenet

    server = FrameServer(
        num_nodes=1,
        micro_batch=8,
        seed=0,
        policy=policy,
        slo_classes={
            "model-a": SloClass(name="served", deadline_s=1.0),
            "model-b": SloClass(
                name="starved", deadline_s=1e-6, drop_policy="deadline"
            ),
        },
    )
    server.register_model("model-a", build_lenet(seed=0))
    server.register_model("model-b", build_lenet(seed=1))
    frame = np.random.default_rng(1).uniform(0.0, 1.0, (1, 28, 28))
    requests = [FrameRequest(frame, "model-a", arrival_s=0.0)] + [
        FrameRequest(frame, "model-b", arrival_s=1e-5 * (i + 1))
        for i in range(4)
    ]
    return server.serve(requests, offered_fps=1000.0)


@pytest.mark.parametrize("policy", ["greedy", "edf", "slo"])
def test_zero_delivered_class_percentiles_and_hit_rates(policy):
    report = _starved_report(policy)
    stats = report.slo.classes["starved"]
    assert stats.offered == 4
    assert stats.delivered == 0
    assert stats.hit_rate == 0.0
    assert stats.delivered_rate == 0.0
    assert math.isnan(stats.p50_latency_s)
    assert math.isnan(stats.p99_latency_s)


@pytest.mark.parametrize("policy", ["greedy", "edf", "slo"])
def test_zero_delivered_class_bench_payload_round_trips(tmp_path, policy):
    """A bench payload built from a starved class must serialize the NaN
    percentiles as ``null`` and survive a strict ``json.loads``."""
    stats = _starved_report(policy).slo.classes["starved"]
    path = str(tmp_path / "BENCH_starved.json")
    write_bench(
        path,
        {
            "quick": False,
            "policy": policy,
            "starved": {
                "hit_rate": stats.hit_rate,
                "p50_latency_s": stats.p50_latency_s,
                "p99_latency_s": stats.p99_latency_s,
            },
        },
    )
    with open(path) as handle:
        loaded = json.load(handle, parse_constant=_reject_constant)
    assert loaded["starved"]["p50_latency_s"] is None
    assert loaded["starved"]["p99_latency_s"] is None
    assert loaded["starved"]["hit_rate"] == 0.0


def test_all_dropped_stream_report_statistics():
    """A stream that delivered nothing reports NaN latencies (rendered as
    ``n/a``), zero hit rate, and zero sustained FPS — never a crash."""
    report = StreamReport(
        events=[
            StreamEvent(
                index=i,
                arrival_s=i * 1e-3,
                start_s=0.0,
                finish_s=0.0,
                dropped=True,
                remapped=False,
            )
            for i in range(3)
        ]
    )
    assert math.isnan(report.mean_latency_s)
    assert math.isnan(report.latency_percentile(0.99))
    assert report.deadline_hit_rate(0.01) == 0.0
    assert report.drop_rate == 1.0

    from repro.cli import _na_if_nan

    assert _na_if_nan(report.mean_latency_s * 1e3, ".3f") == "n/a"
    assert _na_if_nan(1.5, ".3f") == "1.500"


def test_nan_p99_never_reads_as_sustainable():
    """The capacity probe's explicit NaN guard: a zero-delivered probe is
    not sustainable even though ``NaN <= deadline`` is falsy by accident
    (and ``NaN > deadline`` would be too)."""
    p99 = float("nan")
    assert not (not math.isnan(p99) and 1.0 >= 0.99 and p99 <= 0.006 + 1e-12)


# ----------------------------------------------------------------------
# Deterministic stream merging
# ----------------------------------------------------------------------
def test_interleave_breaks_arrival_ties_by_tenant_then_index():
    frame = np.zeros((1, 2, 2))
    beta = [
        FrameRequest(frame, "m-b", arrival_s=0.5, tenant="beta"),
        FrameRequest(frame, "m-b", arrival_s=0.5, tenant="beta"),
    ]
    alpha = [
        FrameRequest(frame, "m-a", arrival_s=0.5, tenant="alpha"),
        FrameRequest(frame, "m-a", arrival_s=0.0, tenant="alpha"),
    ]
    # Stream order presents beta first; the explicit key must still put
    # alpha's equal-arrival requests ahead, each stream in index order.
    merged = _interleave([beta, alpha])
    assert [(r.tenant, r.arrival_s) for r in merged] == [
        ("alpha", 0.0),
        ("alpha", 0.5),
        ("beta", 0.5),
        ("beta", 0.5),
    ]
    assert merged[2] is beta[0] and merged[3] is beta[1]


def test_interleave_falls_back_to_model_key_for_anonymous_tenants():
    frame = np.zeros((1, 2, 2))
    named = [FrameRequest(frame, "m-z", arrival_s=1.0, tenant="aardvark")]
    anonymous = [FrameRequest(frame, "m-a", arrival_s=1.0)]
    merged = _interleave([named, anonymous])
    assert [r.model_key for r in merged] == ["m-z", "m-a"]


# ----------------------------------------------------------------------
# Strict bench JSON
# ----------------------------------------------------------------------
def test_write_bench_serializes_non_finite_floats_as_null(tmp_path):
    path = str(tmp_path / "BENCH_nan.json")
    write_bench(
        path,
        {
            "quick": False,
            "p99": float("nan"),
            "bound": float("inf"),
            "nested": [{"p50": float("-inf")}, 1.0],
        },
    )
    with open(path) as handle:
        text = handle.read()
    assert "NaN" not in text and "Infinity" not in text
    loaded = json.loads(text, parse_constant=_reject_constant)
    assert loaded["p99"] is None
    assert loaded["bound"] is None
    assert loaded["nested"][0]["p50"] is None
    assert loaded["nested"][1] == 1.0


def test_sanitize_bench_payload_preserves_finite_values():
    payload = {"a": 1.5, "b": [0, "x", None], "c": {"d": True}}
    assert sanitize_bench_payload(payload) == payload


def test_would_clobber_tolerates_legacy_nan_payload(tmp_path, capsys):
    """A pre-fix full-mode entry containing literal ``NaN`` still blocks a
    quick smoke run from clobbering it — flagged, not crashed."""
    path = str(tmp_path / "BENCH_legacy.json")
    with open(path, "w") as handle:
        handle.write('{"quick": false, "p99_latency_s": NaN}\n')
    assert would_clobber_full_bench(path, {"quick": True}) is True
    assert "legacy payload" in capsys.readouterr().out
    # And an honest quick-over-quick overwrite still goes through.
    assert would_clobber_full_bench(path, {"quick": False}) is False
