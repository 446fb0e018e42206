"""Full-compute outputs of the ``zoo`` stream, pinned per response.

``tests/goldens/serve_default.json`` pins outputs for two LeNets only.
This golden covers every model family the engine serves: the ``zoo``
scenario (LeNet, MLP, VGG-16 and ResNet-18 stems at several bit widths)
on a fresh 4-node server at seed 0, with full compute.  Each response
records its placement, its event times as exact ``repr`` floats and a
SHA-256 over its output tensor.  The same stream is captured a second
time under the ``correlated-upsets`` chaos plan, which degrades two
ResNet-18 frames, so the faulty-core read-out is pinned as well.

Regenerate only after an intentional numeric change, with::

    PYTHONPATH=src python tests/test_serve_zoo_golden.py --write

and review the diff — this file changing is the review event.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "serve_zoo.jsonl"
)

#: case name -> chaos plan the stream is served under.
CASES = {"plain": None, "correlated-upsets": "correlated-upsets"}


def _rows(case: str) -> list[dict]:
    """One summary row plus one row per response for one served case."""
    from repro.engine import FrameServer
    from repro.engine.workloads import build_scenario

    scenario = build_scenario("zoo", frames=64, offered_fps=1000.0, seed=0)
    server = FrameServer(
        num_nodes=4, micro_batch=16, seed=0, chaos_plan=CASES[case]
    )
    report = server.serve_scenario(scenario)
    rows = [
        {
            "case": case,
            "frames": report.stream.frames,
            "dropped": report.stream.dropped,
            "total_energy_j": repr(report.stream.total_energy_j),
            "payload_bytes": report.payload_bytes,
            "radio_energy_j": repr(report.radio_energy_j),
            "node_frames": sorted(report.node_frames.items()),
            "cache": [report.cache_hits, report.cache_misses],
        }
    ]
    for response in report.responses:
        event = response.event
        output = response.output
        rows.append(
            {
                "case": case,
                "index": response.index,
                "model_key": response.model_key,
                "node_id": response.node_id,
                "served_model": response.served_model,
                "degraded": response.degraded,
                "event": [
                    event.index,
                    repr(event.arrival_s),
                    repr(event.start_s),
                    repr(event.finish_s),
                    event.dropped,
                    event.remapped,
                ],
                "output_sha256": (
                    None
                    if output is None
                    else hashlib.sha256(
                        np.ascontiguousarray(output, dtype=float).tobytes()
                    ).hexdigest()
                ),
            }
        )
    return rows


def _golden_rows(case: str) -> list[dict]:
    with open(GOLDEN_PATH) as handle:
        rows = [json.loads(line) for line in handle]
    return [row for row in rows if row["case"] == case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_zoo_stream_matches_golden(case):
    expected = _golden_rows(case)
    # JSON has no tuples; round-trip the live rows the same way.
    actual = [json.loads(json.dumps(row)) for row in _rows(case)]
    assert len(actual) == len(expected)
    for live, pinned in zip(actual, expected):
        assert live == pinned, (
            f"zoo stream drifted from the golden on {case!r}: {live} != "
            f"{pinned}"
        )


def test_golden_pins_degraded_frames():
    """The chaos case must keep exercising the faulty-core read-out."""
    degraded = [
        row
        for row in _golden_rows("correlated-upsets")
        if row.get("degraded") and row["output_sha256"] is not None
    ]
    assert degraded, "no delivered degraded frame left in the chaos case"


def write_golden() -> None:
    with open(GOLDEN_PATH, "w") as handle:
        for case in CASES:
            for row in _rows(case):
                handle.write(json.dumps(row, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from golden_cli import golden_main

    golden_main(write_golden, __doc__)
