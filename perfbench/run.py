#!/usr/bin/env python3
"""Run the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload mlp-stream --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 0            # every workload, one process each

Load model: one process, one closed-loop caller (the next op starts when
the previous one returned), serial fan-out.  Each op is timed from
outside the public call.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``:
``setup_s`` (median of several set-ups), ``frames_per_s`` over the timed
phase and ``peak_rss_mb`` of this process.  The median and tail op times
and the error rate are printed beside them.  ``--trace 1``
alternates untraced and traced ops and prints the per-layer metrics
(``layers.py``); the spans go to ``perfbench/out/`` as JSON lines.

Every op is checked: the simulated outcome must equal the first op's
(and, at seed 0, the digests pinned in ``pinned.json``), and the result
must satisfy the workload's invariants.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOAD_NAMES = ("mlp-stream", "tenant-mix", "zoo-cold", "capacity-sweep")
#: Set-ups per untraced run; ``setup_s`` is their median.  The first few
#: in a fresh process run slower (first-touch allocation), so the median
#: needs enough warm ones behind it.
SETUP_REPEATS = 11
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_rev() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args, workload, numpy_version: str) -> dict:
    return {
        "workload": workload.name,
        "params": workload.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "git_rev": git_rev(),
        "load": "1 process, 1 closed-loop caller, serial fan-out",
    }


class Checker:
    """Per-op correctness: invariants, first-op equality, seed-0 pins."""

    def __init__(self, workload, state, seed: int) -> None:
        self.workload = workload
        self.state = state
        self.first = None
        self.pin = None
        self.setup_problems: list[str] = []
        if seed == 0:
            with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as handle:
                self.pin = json.load(handle)["workloads"].get(workload.name)
        self.input_digest = workload.input_digest(state)
        if self.pin is not None and self.input_digest != self.pin["input_digest"]:
            self.setup_problems.append("inputs differ from the seed-0 pin")

    def check(self, result):
        outcome = self.workload.outcome(self.state, result)
        problems = list(self.setup_problems) + list(outcome.problems)
        if self.first is None:
            self.first = outcome
        elif outcome.full_digest != self.first.full_digest:
            problems.append("outcome differs from the first op's")
        if self.pin is not None:
            if outcome.sim_digest != self.pin["sim_digest"]:
                problems.append("simulated outcome differs from the seed-0 pin")
            pinned_points = self.pin.get("points_repr")
            if pinned_points is not None and outcome.points_repr != pinned_points:
                problems.append("repr(report.points) differs from the seed-0 pin")
        return outcome, problems


class Phase:
    """Closed-loop timed phase: ops back to back until ``seconds`` ran out."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.frames = 0
        self.attempted = 0
        self.failed = 0

    def op(self, workload, state, checker, op_id: int, tracer=None) -> None:
        """Run, time and check one op (inside a root span when tracing)."""
        self.attempted += 1
        # Every op starts from a collected heap: otherwise the previous
        # op's cyclic garbage (whole servers, on the cold workloads) is
        # still resident, and peak_rss_mb depends on how many ops fit.
        gc.collect()
        try:
            if tracer is None:
                t0 = time.perf_counter()
                result = workload.op(state)
                elapsed = time.perf_counter() - t0
            else:
                with tracer.op(op_id):
                    t0 = time.perf_counter()
                    result = workload.op(state)
                    elapsed = time.perf_counter() - t0
        except Exception:  # an op that raises counts as failed
            self.failed += 1
            traceback.print_exc()
            return
        outcome, problems = checker.check(result)
        if problems:
            self.failed += 1
            print(f"op {op_id} failed its check: {'; '.join(problems)}", file=sys.stderr)
            return
        self.durations.append(elapsed)
        self.frames += outcome.frames

    def run(self, workload, state, checker, seconds: float) -> "Phase":
        started = time.perf_counter()
        while self.attempted == 0 or time.perf_counter() - started < seconds:
            self.op(workload, state, checker, self.attempted)
        return self

    @property
    def p50_ms(self) -> float:
        """Median op time; 0.0 when no op passed (the run is then incorrect)."""
        return statistics.median(self.durations) * 1e3 if self.durations else 0.0

    def tail(self):
        """(percentile, value ms) with :data:`TAIL_BEYOND` samples beyond it."""
        n = len(self.durations)
        if n <= TAIL_BEYOND:
            return None
        ordered = sorted(self.durations)
        return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1] * 1e3


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload, args):
    setups = []
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(args.seed)
        setups.append(time.perf_counter() - t0)
    checker = Checker(workload, state, args.seed)
    phase = Phase().run(workload, state, checker, args.seconds)
    busy = sum(phase.durations)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "frames_per_s": _metric(phase.frames / busy if busy else 0.0, "1/s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    lines = [
        f"  setups: {', '.join(f'{s:.4f}' for s in setups)} s",
        f"  op_p50_ms: {phase.p50_ms:.3f} ms (n={len(phase.durations)})",
    ]
    tail = phase.tail()
    if tail is None:
        lines.append(f"  op_tail_ms: omitted ({len(phase.durations)} ops, "
                     f"needs more than {TAIL_BEYOND})")
    else:
        lines.append(f"  op_tail_ms: p{tail[0]:.2f} = {tail[1]:.3f} ms "
                     f"(n={len(phase.durations)}, {TAIL_BEYOND} beyond)")
    lines.append(f"  error_rate: {phase.failed / phase.attempted:.4f} "
                 f"({phase.failed}/{phase.attempted})")
    return metrics, phase.attempted, phase.failed, checker, lines


def run_traced(workload, args):
    from perfbench import layers
    from perfbench.spans import Tracer, self_times

    state = workload.setup(args.seed)
    checker = Checker(workload, state, args.seed)
    # Untraced and traced ops alternate, so drift in the host's speed
    # cancels out of trace.overhead; the patches are only in place for
    # the traced ops.
    untraced, traced = Phase(), Phase()
    tracer = Tracer()
    started = time.perf_counter()
    op_id = 0
    while op_id < 2 or time.perf_counter() - started < args.seconds:
        if op_id % 2 == 0:
            untraced.op(workload, state, checker, op_id)
        else:
            layers.install(tracer)
            try:
                traced.op(workload, state, checker, op_id, tracer=tracer)
            finally:
                tracer.uninstall()
        op_id += 1
    values = layers.per_layer_metrics(tracer.spans, untraced.p50_ms, traced.p50_ms)
    metrics = {name: _metric(values[name], unit) for name, unit in layers.METRICS.items()}

    selfs = self_times(tracer.spans)
    residual = {}  # per op: sum of self times minus the op span
    for span in tracer.spans:
        own = span.dur_ns if span.name == Tracer.OP else 0
        residual[span.op] = residual.get(span.op, 0) + selfs[span.id] - own
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload.name}-seed{args.seed}.jsonl")
    tracer.write_jsonl(path)
    lines = [
        f"  ops: {untraced.attempted} untraced, {traced.attempted} traced; "
        f"op_p50_ms {untraced.p50_ms:.3f} untraced, {traced.p50_ms:.3f} traced",
        f"  spans: {len(tracer.spans)} -> {os.path.relpath(path, ROOT)}",
        f"  self-time residual per op (op span minus the sum of self times): "
        f"max {max(map(abs, residual.values()), default=0)} ns",
        f"  unpatched (absent) names: {', '.join(tracer.missing) or 'none'}",
    ]
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    return metrics, attempted, failed, checker, lines


def run_one(args) -> int:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    try:
        import numpy
        import repro
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    source = os.path.join(ROOT, "src", "repro")
    if os.path.dirname(os.path.abspath(repro.__file__)) != source:
        print(f"perfbench: repro imported from {repro.__file__}, not {source}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    print("manifest " + json.dumps(manifest(args, workload, numpy.__version__), sort_keys=True))
    runner = run_traced if args.trace else run_untraced
    metrics, attempted, failed, checker, lines = runner(workload, args)
    first = checker.first
    print(f"{workload.name} (seed {args.seed}, trace {args.trace}):")
    for name, metric in metrics.items():
        print(f"  {name}: {metric['value']:.6g} {metric['unit']}")
    for line in lines:
        print(line)
    print(f"  input_digest: {checker.input_digest}")
    print(f"  sim_digest: {first.sim_digest if first else 'none'}")
    print(json.dumps({
        "correct": failed == 0 and first is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so ``peak_rss_mb`` is per workload."""
    combined = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(child.stdout)
        if child.returncode != 0:
            print(f"perfbench: workload {name} exited with {child.returncode}", file=sys.stderr)
            return child.returncode
        result = json.loads(child.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            combined[f"{name}/{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    return run_all(args) if args.workload is None else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
