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

import json
import os

import pytest

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "goldens", "serve_zoo.jsonl"
)

#: case name -> chaos plan the stream is served under.
CASES = {"plain": None, "correlated-upsets": "correlated-upsets"}

#: Record fields a summary row pins as they are (``node_frames`` and the
#: cache counters are reshaped), the response fields a response row pins,
#: and the ones it packs into its ``event`` list.
SUMMARY_KEYS = (
    "frames", "dropped", "total_energy_j", "payload_bytes", "radio_energy_j"
)
RESPONSE_KEYS = (
    "index", "model_key", "node_id", "served_model", "degraded",
    "output_sha256",
)
EVENT_KEYS = (
    "index", "arrival_s", "start_s", "finish_s", "dropped", "remapped"
)


def _rows(case: str) -> list[dict]:
    """One summary row plus one row per response for one served case: a
    projection of ``ServeReport.record()``."""
    from repro.engine import FrameServer
    from repro.engine.workloads import build_scenario

    scenario = build_scenario("zoo", frames=64, offered_fps=1000.0, seed=0)
    server = FrameServer(
        num_nodes=4, micro_batch=16, seed=0, chaos_plan=CASES[case]
    )
    record = server.serve_scenario(scenario).record()
    summary = {
        "case": case,
        **{key: record[key] for key in SUMMARY_KEYS},
        "node_frames": [
            [int(node), count] for node, count in record["node_frames"].items()
        ],
        "cache": [record["cache_hits"], record["cache_misses"]],
    }
    return [summary] + [
        {
            "case": case,
            **{key: response[key] for key in RESPONSE_KEYS},
            "event": [response[key] for key in EVENT_KEYS],
        }
        for response in record["responses"]
    ]


def _text(case: str) -> str:
    """One case's exact golden lines, as :func:`write_golden` writes them."""
    rows = _rows(case)
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def _golden_lines(case: str) -> list[str]:
    with open(GOLDEN_PATH) as handle:
        return [line for line in handle if json.loads(line)["case"] == case]


def _golden_rows(case: str) -> list[dict]:
    return [json.loads(line) for line in _golden_lines(case)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_zoo_stream_matches_golden(case):
    assert _text(case) == "".join(_golden_lines(case)), (
        f"zoo stream drifted from the golden on {case!r}"
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
            handle.write(_text(case))
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from golden_cli import golden_main

    golden_main(write_golden, __doc__)
