"""Perf-trajectory bench: weight-programming latency.

This module is the measurement core behind ``repro bench`` and
``benchmarks/bench_program_latency.py``.  It times the two ways a
program reaches a die:

* **cold program** — one full :meth:`~repro.core.opc.OpticalProcessingCore.
  program` call (AWC realization + batched crosstalk + batched tuning
  budget) on a VGG16-sized first layer, against the retained scalar
  reference (:mod:`repro.core.reference`) that preserves the
  pre-vectorization loops;
* **warm install** — reinstalling a cached
  :class:`~repro.core.opc.ProgrammedWeights` record through
  :class:`~repro.engine.cache.WeightProgramCache`.

The result dict is written to ``BENCH_program.json`` at the repo root —
the first entry of the perf trajectory, so every future PR has a baseline
to beat.  Timings are environment-dependent; the *speedups* and the
:data:`EXACT_CLAIMS` are the stable claims.  Serving throughput is timed
by the repository benchmark (``perfbench/``), not here.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from typing import Any, Callable

import numpy as np

#: The bench workload: VGG16's first convolution (64 kernels, 3x3x3).
VGG16_FIRST_LAYER_SHAPE: tuple[int, ...] = (64, 3, 3, 3)

#: Dotted paths into a :func:`run_bench` payload that must read ``True``
#: on any host and in both modes.
EXACT_CLAIMS: tuple[str, ...] = ("cold_program.bit_identical",)


def _best_of(fn: Callable[[], Any], repeats: int) -> tuple[float, Any]:
    """(best wall-clock [s], last result) over ``repeats`` calls."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def bench_cold_program(
    shape: tuple[int, ...] = VGG16_FIRST_LAYER_SHAPE,
    bits: int = 4,
    seed: int = 0,
    repeats: int = 5,
    scalar_repeats: int = 2,
) -> dict[str, Any]:
    """Time vectorized vs scalar-reference cold ``program()`` on one layer."""
    from repro.core.opc import OpticalProcessingCore
    from repro.core.reference import program_scalar
    from repro.nn.quant import UniformWeightQuantizer

    rng = np.random.default_rng(seed)
    weights = rng.normal(size=shape) * 0.1
    quantizer = UniformWeightQuantizer(bits)
    quantized = quantizer.quantize(weights)
    scale = quantizer.scale(weights)

    opc = OpticalProcessingCore(seed=seed)
    vectorized_s, programmed = _best_of(
        lambda: opc.program(quantized, scale), repeats
    )
    scalar_s, reference = _best_of(
        lambda: program_scalar(opc, quantized, scale), scalar_repeats
    )
    bit_identical = bool(
        np.array_equal(programmed.realized, reference.realized)
        and programmed.tuning == reference.tuning
    )
    return {
        "workload": {
            "shape": list(shape),
            "weight_bits": bits,
            "num_weights": int(np.prod(shape)),
        },
        "vectorized_s": vectorized_s,
        "scalar_reference_s": scalar_s,
        "speedup": scalar_s / vectorized_s,
        "bit_identical": bit_identical,
    }


def bench_warm_install(
    shape: tuple[int, ...] = VGG16_FIRST_LAYER_SHAPE,
    bits: int = 4,
    seed: int = 0,
    installs: int = 200,
) -> dict[str, Any]:
    """Time a cache-hit reinstall against the cold program it replaces."""
    from repro.core.opc import KernelSet, OpticalProcessingCore
    from repro.engine.cache import WeightProgramCache
    from repro.nn.quant import UniformWeightQuantizer

    rng = np.random.default_rng(seed)
    weights = rng.normal(size=shape) * 0.1
    quantizer = UniformWeightQuantizer(bits)
    kernels = KernelSet.build(quantizer.quantize(weights), quantizer.scale(weights))

    opc = OpticalProcessingCore(seed=seed)
    cache = WeightProgramCache()
    cold_s, _ = _best_of(lambda: opc.program(kernels.weights, kernels.scale), 3)
    cache.get_or_program(opc, kernels)  # prime: one miss

    started = time.perf_counter()
    for _ in range(installs):
        cache.get_or_program(opc, kernels)
    per_install_s = (time.perf_counter() - started) / installs
    assert cache.stats.hits == installs
    return {
        "per_install_s": per_install_s,
        "cold_program_s": cold_s,
        "speedup_vs_cold": cold_s / per_install_s if per_install_s > 0 else float("inf"),
    }


def run_bench(quick: bool = False, seed: int = 0) -> dict[str, Any]:
    """Run the whole perf-trajectory bench and return the JSON payload.

    The legs read as the two ways a program reaches a die — cold
    ``program()`` and an in-memory cache hit.  ``quick``
    is the CI smoke mode: fewer repeats and smaller workloads so the job
    stays in seconds; the measured *speedups* are noisier but the
    :data:`EXACT_CLAIMS` hold either way.
    """
    cold = bench_cold_program(
        repeats=2 if quick else 5, scalar_repeats=1 if quick else 2, seed=seed
    )
    warm = bench_warm_install(installs=50 if quick else 200, seed=seed)
    return {
        "bench": "program_latency",
        "schema": 4,
        "quick": quick,
        "cold_program": cold,
        "warm_install": warm,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }


def render_bench(result: dict[str, Any]) -> str:
    """Human-readable summary of one :func:`run_bench` payload."""
    from repro.util.tables import format_table

    cold = result["cold_program"]
    warm = result["warm_install"]
    shape = "x".join(str(d) for d in cold["workload"]["shape"])
    rows = [
        ("workload", f"{shape} @ {cold['workload']['weight_bits']}-bit"),
        ("cold program (vectorized)", f"{cold['vectorized_s'] * 1e3:.2f} ms"),
        ("cold program (scalar ref)", f"{cold['scalar_reference_s'] * 1e3:.2f} ms"),
        ("cold-program speedup", f"{cold['speedup']:.1f}x"),
        ("scalar/vectorized bit-identical", str(cold["bit_identical"])),
        ("warm install (cache hit)", f"{warm['per_install_s'] * 1e6:.1f} us"),
        ("warm vs cold", f"{warm['speedup_vs_cold']:.0f}x"),
    ]
    return format_table(
        ("metric", "value"),
        rows,
        title="repro bench — weight-programming perf trajectory",
    )


def _reject_json_constant(name: str):
    raise ValueError(f"non-JSON constant {name!r} in bench payload")


def sanitize_bench_payload(value: Any) -> Any:
    """Replace non-finite floats with ``None``, recursively.

    ``json.dump`` would otherwise emit literal ``NaN``/``Infinity`` —
    tokens the JSON grammar does not allow, which break every strict
    downstream reader.  ``null`` is the explicit "no measurement" marker
    (e.g. the p99 latency of an SLO class that delivered zero frames).
    """
    if isinstance(value, dict):
        return {key: sanitize_bench_payload(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_bench_payload(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def would_clobber_full_bench(path: str, result: dict[str, Any]) -> bool:
    """Whether writing ``result`` would replace a full run with a smoke run.

    The perf-trajectory artifacts (``BENCH_*.json`` at the repo root) are
    long-lived baselines; CI smoke runs (``quick: true`` payloads, fewer
    repeats/frames) must never overwrite a full-mode entry — that
    silently degrades the trajectory every future PR measures against.
    An unreadable/schema-less existing file never blocks (it is not a
    trajectory entry worth protecting).  Legacy payloads written before
    :func:`write_bench` sanitized non-finite floats may contain literal
    ``NaN``/``Infinity``; those are tolerated (parsed leniently) but
    flagged so they get rewritten through the sanitizer.
    """
    if not result.get("quick", False) or not os.path.exists(path):
        return False
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError:
        return False
    try:
        existing = json.loads(text, parse_constant=_reject_json_constant)
    except json.JSONDecodeError:
        return False
    except ValueError:
        try:
            existing = json.loads(text)
        except json.JSONDecodeError:
            return False
        print(
            f"would_clobber_full_bench: {path} holds non-JSON NaN/Infinity "
            "constants (legacy payload) — rewrite it via write_bench"
        )
    return isinstance(existing, dict) and not existing.get("quick", False)


def write_bench(path: str, result: dict[str, Any]) -> str:
    """Write a bench payload as pretty, strictly valid JSON; returns ``path``.

    Non-finite floats serialize as ``null`` (see
    :func:`sanitize_bench_payload`); ``allow_nan=False`` backstops the
    sanitizer so a literal ``NaN`` can never reach the trajectory again.
    Refuses (skips the write, keeps the existing file) when ``result`` is
    a ``quick`` smoke payload and ``path`` already holds a full-mode
    entry — see :func:`would_clobber_full_bench`.
    """
    if would_clobber_full_bench(path, result):
        print(
            f"write_bench: refusing to overwrite full-mode {path} with a "
            "quick (smoke) payload; existing trajectory entry kept"
        )
        return path
    with open(path, "w") as handle:
        json.dump(
            sanitize_bench_payload(result),
            handle,
            indent=2,
            sort_keys=False,
            allow_nan=False,
        )
        handle.write("\n")
    return path
