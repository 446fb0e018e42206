"""Weight-programming latency: vectorized hot path vs the scalar reference.

The acceptance scenario: a cold ``OpticalProcessingCore.program()`` on a
VGG16-sized first layer (64x3x3x3, 4-bit) must run >= 10x faster than the
pre-vectorization scalar path (retained verbatim in
:mod:`repro.core.reference`), with **bit-identical** results — the batched
code performs the same elementwise float ops, just without the Python
loops.  The run also times warm cache installs, and writes
``BENCH_program.json`` at the repo root: the first entry of the perf
trajectory, the baseline every future change measures against.

Set ``REPRO_BENCH_QUICK=1`` (CI smoke) for a fewer-repeats run; the
cold-program floor is asserted either way because the speedup is ~25x on
an idle box — 10x holds with margin even under CI noise.
"""

import json
import os

import pytest

from repro.analysis.perf import run_bench, write_bench

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_program.json")
QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"


@pytest.fixture(scope="module")
def bench_result(save_artifact):
    result = run_bench(quick=QUICK)
    write_bench(BENCH_JSON, result)
    save_artifact(
        "program_latency.txt",
        json.dumps(result, indent=2),
    )
    print(f"[perf trajectory entry written to {BENCH_JSON}]")
    return result


def test_cold_program_at_least_10x_scalar(bench_result):
    """The headline acceptance: >= 10x faster cold program on VGG16 layer 1."""
    cold = bench_result["cold_program"]
    assert cold["workload"]["shape"] == [64, 3, 3, 3]
    assert cold["workload"]["weight_bits"] == 4
    assert cold["speedup"] >= 10.0, (
        f"expected >= 10x over the scalar reference, measured "
        f"{cold['speedup']:.1f}x"
    )


def test_cold_program_bit_identical_to_scalar(bench_result):
    """Vectorization must not change a single bit of the mapping."""
    assert bench_result["cold_program"]["bit_identical"] is True


def test_warm_install_is_cheaper_than_cold_program(bench_result):
    """A cache-hit reinstall must undercut even the vectorized cold path."""
    warm = bench_result["warm_install"]
    assert warm["per_install_s"] < warm["cold_program_s"]
    assert warm["speedup_vs_cold"] > 1.0


def test_bench_json_written_at_repo_root(bench_result):
    """The perf-trajectory artifact exists and round-trips as JSON."""
    assert os.path.exists(BENCH_JSON)
    with open(BENCH_JSON) as handle:
        payload = json.load(handle)
    assert payload["bench"] == "program_latency"
    assert payload["cold_program"]["speedup"] > 0.0
