"""The benchmark's own tests: span arithmetic, metric names, determinism.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

from perfbench import layers
from perfbench.spans import Span, Tracer, self_times
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload, seed, trace, cwd=ROOT, env=None, seconds="0.3"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
        env={**os.environ, **(env or {})},
    )


def _result(completed) -> dict:
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _printed(completed, key: str) -> str:
    for line in completed.stdout.splitlines():
        if line.strip().startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"{key} not printed")


def test_self_times_on_a_synthetic_tree():
    # op [0, 100) holds a [10, 60) and d [70, 90); a holds b [20, 30) and
    # c [40, 50).
    spans = [
        Span(0, None, 0, Tracer.OP, 0, 100),
        Span(1, 0, 0, "x:a", 10, 60),
        Span(2, 1, 0, "x:b", 20, 30),
        Span(3, 1, 0, "y:c", 40, 50),
        Span(4, 0, 0, "y:d", 70, 90),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 30, 1: 30, 2: 10, 3: 10, 4: 20}
    assert sum(selfs.values()) == spans[0].dur_ns


def test_tracer_nests_spans_and_skips_missing_names(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")

    class Engine:
        def outer(self, n):
            return self.inner(n) + 1

        def inner(self, n):
            return n * 2

    module.Engine = Engine
    monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer = Tracer()
    assert tracer.wrap(module.__name__, "Engine.outer", "fake.outer")
    assert tracer.wrap(module.__name__, "Engine.inner", "fake.inner")
    assert not tracer.wrap(module.__name__, "Engine.forward_batched", "fake.gone")
    assert not tracer.wrap(module.__name__, "Gone.method", "fake.gone")
    engine = Engine()
    assert engine.outer(3) == 7 and not tracer.spans  # no op open: pass-through
    with tracer.op(5):
        assert engine.outer(3) == 7
    tracer.uninstall()
    assert Engine.__dict__["outer"].__name__ == "outer" and engine.outer(1) == 3
    op, outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (op.id, outer.id)
    assert {span.op for span in tracer.spans} == {5}
    assert [span.layer for span in tracer.spans] == ["op", "fake.outer", "fake.inner"]
    assert tracer.missing == [
        "perfbench_fake_layer:Engine.forward_batched",
        "perfbench_fake_layer:Gone.method",
    ]


def test_layer_metric_table_matches_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
    assert set(WORKLOADS) == {w["name"] for w in spec["workloads"]}


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_equal_benchmark_json(trace):
    spec = _benchmark_json()
    section = spec["per_layer" if trace else "end_to_end"]
    result = _result(_run("zoo-cold", 0, trace))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in section}
    for metric in section:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_same_seed_runs_give_identical_simulated_digests():
    # Different hash seeds: the outcome must not depend on set/dict order.
    first = _run("tenant-mix", 3, 0, env={"PYTHONHASHSEED": "1"})
    second = _run("tenant-mix", 3, 0, env={"PYTHONHASHSEED": "2"})
    assert _result(first)["correct"] and _result(second)["correct"]
    for key in ("input_digest", "sim_digest"):
        assert _printed(first, key) == _printed(second, key)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_different_seed_changes_the_inputs(name):
    workload = WORKLOADS[name]
    digests = {workload.input_digest(workload.setup(seed)) for seed in (0, 1)}
    assert len(digests) == 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    completed = _run("mlp-stream", 0, 0, cwd=str(tmp_path))
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
