"""KPI gate over ``BENCH_program.json``, the wall-clock perf trajectory.

:func:`repro.analysis.perf.write_bench` stops a smoke run from
*overwriting* a full-mode trajectory entry; this tool extends the
protection from "don't overwrite" to "don't regress": it compares each
``BENCH_*.json`` in the working tree against the committed copy
(``git show <ref>:<path>``) and fails when a KPI falls beyond tolerance.

Two kinds of checks:

1. **invariants** — the bench's exact claims
   (:data:`repro.analysis.perf.EXACT_CLAIMS`: bit-identity flags, a warm
   store that programs nothing), which hold regardless of host speed.
   Checked on the working-tree payload in full *and* quick mode.
2. **trajectory comparisons** — wall-clock speedups.  Compared only when
   *both* payloads are full-mode (``quick: false``): smoke numbers are
   noise by design.  A fresh value may fall below the baseline by up to
   :data:`REL_TOL` before the gate trips — timings are
   environment-dependent, so the tolerance is deliberately generous; the
   gate catches collapses, not jitter.

A CI checkout holds only the committed file, so there the gate
strict-parses it and checks its invariants; run it after a full-mode
``repro bench`` to gate the new numbers.  The simulated-time serving
numbers are not gated here: ``tests/test_simulated_benches.py`` pins
them as exact goldens.

Run from the repo root::

    PYTHONPATH=src python tools/kpi_check.py [--ref HEAD] [paths...]

Exit status 0 means every gated KPI holds; failures are listed one per
line.  A bench file with no committed baseline passes (first entry of a
new trajectory).  ``tests/test_tools_kpi.py`` unit-tests the comparison
logic.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any

from repro.analysis.perf import EXACT_CLAIMS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Allowed relative drop of a trajectory KPI vs the baseline (0.5 = may
#: halve).
REL_TOL = 0.5


@dataclass(frozen=True)
class Kpi:
    """One gated metric inside a bench payload.

    ``path`` is a dotted lookup into the payload.  ``kind`` is either
    ``"invariant_true"`` (the fresh value must be exactly ``True``) or
    ``"higher"`` (the fresh value must not fall below the baseline by
    more than :data:`REL_TOL`).
    """

    path: str
    kind: str = "higher"


#: Gated KPIs per ``bench`` payload name.
KPIS: dict[str, tuple[Kpi, ...]] = {
    "program_latency": (
        *(Kpi(path, kind="invariant_true") for path in EXACT_CLAIMS),
        Kpi("cold_program.speedup"),
        Kpi("warm_install.speedup_vs_cold"),
        Kpi("warm_store.speedup"),
    ),
}


def lookup(payload: dict[str, Any], dotted: str) -> Any:
    """Resolve a dotted path inside a payload (``None`` when absent)."""
    node: Any = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _reject_constant(name: str):
    raise ValueError(f"non-JSON constant {name!r}")


def load_strict(text: str) -> dict[str, Any]:
    """Parse a bench payload, rejecting NaN/Infinity constants."""
    return json.loads(text, parse_constant=_reject_constant)


def check_invariants(name: str, fresh: dict[str, Any]) -> list[str]:
    """Exact-claim failures in one fresh payload (any mode)."""
    failures = []
    for kpi in KPIS.get(name, ()):
        if kpi.kind != "invariant_true":
            continue
        value = lookup(fresh, kpi.path)
        if value is not True:
            failures.append(
                f"{name}: invariant {kpi.path} must be true, got {value!r}"
            )
    return failures


def compare_payloads(
    name: str, fresh: dict[str, Any], baseline: dict[str, Any]
) -> list[str]:
    """Trajectory-regression failures of ``fresh`` against ``baseline``."""
    failures = []
    if fresh.get("quick", False) or baseline.get("quick", False):
        return failures  # smoke numbers are noise by design
    for kpi in KPIS.get(name, ()):
        if kpi.kind != "higher":
            continue
        fresh_value = lookup(fresh, kpi.path)
        base_value = lookup(baseline, kpi.path)
        if not isinstance(fresh_value, (int, float)) or not isinstance(
            base_value, (int, float)
        ):
            continue  # metric absent/null in one payload: nothing to gate
        floor = base_value * (1.0 - REL_TOL)
        if fresh_value < floor:
            failures.append(
                f"{name}: {kpi.path} regressed to {fresh_value:.4g} "
                f"(baseline {base_value:.4g}, floor {floor:.4g})"
            )
    return failures


def baseline_text(ref: str, relpath: str) -> str | None:
    """The committed payload at ``ref`` (``None`` when absent)."""
    try:
        completed = subprocess.run(
            ["git", "show", f"{ref}:{relpath}"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout


def check_file(path: str, ref: str) -> list[str]:
    """All gate failures for one bench file in the working tree."""
    relpath = os.path.relpath(os.path.abspath(path), REPO_ROOT)
    with open(path) as handle:
        try:
            fresh = load_strict(handle.read())
        except ValueError as error:
            return [f"{relpath}: not strict JSON ({error})"]
    name = fresh.get("bench", "")
    if name not in KPIS:
        return []  # unknown bench: nothing gated yet
    failures = check_invariants(name, fresh)
    committed = baseline_text(ref, relpath)
    if committed is not None:
        try:
            baseline = load_strict(committed)
        except ValueError:
            baseline = None  # legacy NaN payload: no baseline to gate on
        if isinstance(baseline, dict):
            failures.extend(compare_payloads(name, fresh, baseline))
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="gate BENCH_*.json KPIs against the committed trajectory"
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="bench files to gate (default: BENCH_*.json at the repo root)",
    )
    parser.add_argument(
        "--ref",
        default="HEAD",
        help="git ref holding the committed trajectory (default: HEAD)",
    )
    args = parser.parse_args(argv)
    paths = args.paths or sorted(
        glob.glob(os.path.join(REPO_ROOT, "BENCH_*.json"))
    )
    failures = []
    for path in paths:
        failures.extend(check_file(path, args.ref))
        print(f"{os.path.relpath(path, REPO_ROOT)}: checked")
    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        print(f"{len(failures)} KPI regression(s) beyond tolerance")
        return 1
    print("kpi check: trajectory holds within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
