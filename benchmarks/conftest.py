"""Shared benchmark fixtures and artifact output.

Every ``bench_*`` module regenerates one of the paper's tables/figures.
Rendered text artifacts are written to ``benchmarks/output/`` so a bench
run leaves the same deliverables the paper prints.

Smoke-mode convention: ``REPRO_BENCH_QUICK=1`` puts the two benches that
honour it (``bench_program_latency``, ``bench_table2_accuracy``) into a
CI-sized run — fewer repeats, smaller training splits — while keeping
the *exact* claims (bit-identity, a warm store programming nothing)
asserted.  ``bench_program_latency`` writes ``BENCH_program.json``
through the guarded :func:`repro.analysis.perf.write_bench`, which
refuses to overwrite a full-mode entry with a ``quick`` payload.
Flaky-by-design accuracy-ordering assertions are skipped in smoke mode so
the benches can run in CI.  Each bench module reads the knob into a
module-level ``QUICK`` constant at import time (skipif decorators
evaluate at collection, and a mid-run flip would be inconsistent).

The simulated-time serving benches are not here: their payloads are
exact tier-1 goldens (``tests/test_simulated_benches.py``).
"""

from __future__ import annotations

import os

import pytest

OUTPUT_DIR = os.path.join(os.path.dirname(__file__), "output")


@pytest.fixture(scope="session")
def artifact_dir() -> str:
    """Directory collecting the rendered table/figure artifacts."""
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def save_artifact(artifact_dir):
    """Write (and echo) a rendered artifact."""

    def _save(name: str, text: str) -> str:
        path = os.path.join(artifact_dir, name)
        with open(path, "w") as handle:
            handle.write(text + "\n")
        print(f"\n{text}\n[artifact saved to {path}]")
        return path

    return _save
