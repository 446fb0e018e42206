#!/usr/bin/env python3
"""Regenerate ``pinned.json``: the seed-0 digests every seed-0 run must match.

Run from the repository root, on a commit whose outputs are known good::

    python3 perfbench/pin.py

It runs each workload's set-up and one op at seed 0 — exactly what the
runner checks as its first op — and records the input digest, the
simulated-outcome digest and, for capacity-sweep, ``repr(report.points)``.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.workloads import WORKLOADS

    pins = {}
    for name, workload in WORKLOADS.items():
        state = workload.setup(0)
        outcome = workload.outcome(state, workload.op(state))
        if outcome.problems:
            print(f"{name}: {'; '.join(outcome.problems)}", file=sys.stderr)
            return 1
        pins[name] = {
            "input_digest": workload.input_digest(state),
            "sim_digest": outcome.sim_digest,
        }
        if outcome.points_repr is not None:
            pins[name]["points_repr"] = outcome.points_repr
        print(f"{name}: {outcome.sim_digest}")
    path = os.path.join(ROOT, "perfbench", "pinned.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"seed": 0, "workloads": pins}, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
