"""Which program names the traced run wraps, and the per-layer metrics.

Layer names are the program's module paths under ``repro``.  Each entry
wraps one public entry point of that layer (plus ``_probe``, the one
capacity-search step that has no public name; it is skipped cleanly if
it disappears).  Module-level functions are patched in every module that
looks them up by name — ``server.py`` imports ``build_slo_report`` into
its own namespace.

``README.md`` maps each metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import statistics

from perfbench.spans import Span, Tracer, self_times

SERVE = "engine.server:FrameServer.serve"
SCHEDULE = "engine.scheduler:FrameScheduler.run"
LOOKUP = "engine.cache:WeightProgramCache.get_or_program"
PROGRAM = "core.opc:OpticalProcessingCore.program"
CONVOLVE = "core.opc:OpticalProcessingCore.convolve"
DOT = "core.opc:OpticalProcessingCore.dot"
FORWARD = "core.pipeline:HardwareFirstLayerPipeline.forward"
FORWARD_BATCHED = "core.pipeline:HardwareFirstLayerPipeline.forward_batched"
ACTIVATE = "core.pipeline:HardwareFirstLayerPipeline.activate"
ENCODE = "nn.models:TernaryInputLayer.forward"
SLO_REPORT = "engine.admission:build_slo_report"
BUILD = "engine.workloads:build_scenario"
CAPACITY = "analysis.capacity:build_capacity_report"
PROBE = "analysis.capacity:_probe"

#: Spans whose work produces logits (the capacity verdict reads none).
COMPUTE = frozenset({FORWARD, FORWARD_BATCHED, CONVOLVE, DOT, ENCODE})


def _serve_attrs(args, kwargs, report) -> dict:
    slo = report.slo.classes.values() if report.slo is not None else ()
    return {
        "wall_clock_s": report.wall_clock_s,
        "delivered": report.delivered,
        "dropped": report.stream.dropped,
        "shed": sum(stats.shed for stats in slo),
        "expired": sum(stats.expired for stats in slo),
    }


def _frames_in(args, kwargs, result) -> dict:
    return {"frames": len(args[1])}


def _frames_out(args, kwargs, result) -> dict:
    return {"frames": len(result)}


def _lookup_attrs(args, kwargs, result) -> dict:
    return {"hit": bool(result[1])}


def _capacity_attrs(args, kwargs, report) -> dict:
    return {"probes": sum(point.probes for point in report.points)}


#: (module where callers look the name up, qualified name, layer, annotate)
WRAPS = (
    ("repro.engine.server", "FrameServer.__init__", "engine.server", None),
    ("repro.engine.server", "FrameServer.warmup", "engine.server", None),
    ("repro.engine.server", "FrameServer.serve_scenario", "engine.server", None),
    ("repro.engine.server", "FrameServer.serve", "engine.server", _serve_attrs),
    ("repro.engine.server", "build_slo_report", "engine.admission", None),
    ("repro.engine.admission", "build_slo_report", "engine.admission", None),
    ("repro.engine.scheduler", "FrameScheduler.run", "engine.scheduler", _frames_in),
    ("repro.engine.cache", "WeightProgramCache.get_or_program", "engine.cache", _lookup_attrs),
    ("repro.engine.workloads", "build_scenario", "engine.workloads", None),
    ("repro.core.opc", "OpticalProcessingCore.program", "core.opc", None),
    ("repro.core.opc", "OpticalProcessingCore.convolve", "core.opc", None),
    ("repro.core.opc", "OpticalProcessingCore.dot", "core.opc", None),
    ("repro.core.pipeline", "HardwareFirstLayerPipeline.__init__", "core.pipeline", None),
    ("repro.core.pipeline", "HardwareFirstLayerPipeline.activate", "core.pipeline", None),
    ("repro.core.pipeline", "HardwareFirstLayerPipeline.forward", "core.pipeline", _frames_out),
    ("repro.core.pipeline", "HardwareFirstLayerPipeline.forward_batched", "core.pipeline", _frames_out),
    ("repro.nn.models", "TernaryInputLayer.forward", "nn.models", None),
    ("repro.analysis.capacity", "build_capacity_report", "analysis.capacity", _capacity_attrs),
    ("repro.analysis.capacity", "_probe", "analysis.capacity", None),
)

#: Every per-layer metric: name -> unit.  ``BENCHMARK.json`` lists the same.
METRICS = {
    "engine.server.self_ms": "ms",
    "engine.server.unreported_share": "ratio",
    "engine.scheduler.self_ms": "ms",
    "engine.scheduler.us_per_frame": "us",
    "engine.scheduler.delivered": "count",
    "engine.scheduler.dropped": "count",
    "engine.scheduler.shed": "count",
    "engine.scheduler.expired": "count",
    "engine.cache.lookups": "count",
    "engine.cache.hit_rate": "ratio",
    "engine.cache.self_ms": "ms",
    "core.opc.program_calls": "count",
    "core.opc.program_ms": "ms",
    "core.opc.convolve_ms": "ms",
    "core.opc.dot_ms": "ms",
    "core.pipeline.forward_calls": "count",
    "core.pipeline.frames_per_call": "frames",
    "core.pipeline.activate_calls": "count",
    "core.pipeline.self_ms": "ms",
    "nn.models.encode_ms": "ms",
    "engine.admission.report_ms": "ms",
    "engine.workloads.builds": "count",
    "engine.workloads.build_ms": "ms",
    "analysis.capacity.probes": "count",
    "analysis.capacity.probe_p50_ms": "ms",
    "analysis.capacity.compute_share": "ratio",
    "trace.overhead": "ratio",
}


def install(tracer: Tracer) -> None:
    """Patch every entry of :data:`WRAPS` (absent names are skipped)."""
    for module, qualname, layer, annotate in WRAPS:
        tracer.wrap(module, qualname, layer, annotate)


def _compute_ns(spans: list[Span], by_id: dict[int, Span]) -> dict[int, int]:
    """Per op: time inside compute spans, counting nested ones once."""
    totals: dict[int, int] = {}
    for span in spans:
        if span.name not in COMPUTE:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name not in COMPUTE:
            parent = by_id.get(parent.parent)
        if parent is None:
            totals[span.op] = totals.get(span.op, 0) + span.dur_ns
    return totals


def per_layer_metrics(
    spans: list[Span], untraced_p50_ms: float, traced_p50_ms: float
) -> dict[str, float]:
    """Per-op means of every :data:`METRICS` entry over the traced ops.

    Layers that never ran read 0.  ``trace.overhead`` is the traced op
    median over the untraced one, both measured in the same run.
    """
    ops = [span for span in spans if span.name == Tracer.OP]
    n_ops = max(len(ops), 1)
    selfs = self_times(spans)
    by_id = {span.id: span for span in spans}
    by_name: dict[str, list[Span]] = {}
    layer_self_ns: dict[str, int] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        layer_self_ns[span.layer] = layer_self_ns.get(span.layer, 0) + selfs[span.id]

    def named(*names: str) -> list[Span]:
        return [span for name in names for span in by_name.get(name, ())]

    def count(*names: str) -> float:
        return len(named(*names)) / n_ops

    def total_ms(*names: str) -> float:
        return sum(span.dur_ns for span in named(*names)) / 1e6 / n_ops

    def layer_ms(layer: str) -> float:
        return layer_self_ns.get(layer, 0) / 1e6 / n_ops

    def attr_sum(name: str, key: str) -> float:
        return sum(span.attrs.get(key, 0) for span in named(name))

    serves = named(SERVE)
    unreported = [
        1.0 - span.attrs["wall_clock_s"] * 1e9 / span.dur_ns
        for span in serves
        if span.dur_ns > 0
    ]
    scheduled = attr_sum(SCHEDULE, "frames")
    lookups = named(LOOKUP)
    forwards = named(FORWARD, FORWARD_BATCHED)
    forward_frames = sum(span.attrs.get("frames", 0) for span in forwards)
    probes = named(PROBE)
    capacity_ops = {span.op for span in named(CAPACITY)}
    compute = _compute_ns(spans, by_id)
    shares = [
        compute.get(op.op, 0) / op.dur_ns
        for op in ops
        if op.op in capacity_ops and op.dur_ns > 0
    ]
    return {
        "engine.server.self_ms": layer_ms("engine.server"),
        "engine.server.unreported_share": (
            statistics.fmean(unreported) if unreported else 0.0
        ),
        "engine.scheduler.self_ms": layer_ms("engine.scheduler"),
        "engine.scheduler.us_per_frame": (
            layer_self_ns.get("engine.scheduler", 0) / 1e3 / scheduled
            if scheduled
            else 0.0
        ),
        "engine.scheduler.delivered": attr_sum(SERVE, "delivered") / n_ops,
        "engine.scheduler.dropped": attr_sum(SERVE, "dropped") / n_ops,
        "engine.scheduler.shed": attr_sum(SERVE, "shed") / n_ops,
        "engine.scheduler.expired": attr_sum(SERVE, "expired") / n_ops,
        "engine.cache.lookups": len(lookups) / n_ops,
        "engine.cache.hit_rate": (
            sum(span.attrs["hit"] for span in lookups) / len(lookups)
            if lookups
            else 0.0
        ),
        "engine.cache.self_ms": layer_ms("engine.cache"),
        "core.opc.program_calls": count(PROGRAM),
        "core.opc.program_ms": total_ms(PROGRAM),
        "core.opc.convolve_ms": total_ms(CONVOLVE),
        "core.opc.dot_ms": total_ms(DOT),
        "core.pipeline.forward_calls": len(forwards) / n_ops,
        "core.pipeline.frames_per_call": (
            forward_frames / len(forwards) if forwards else 0.0
        ),
        "core.pipeline.activate_calls": count(ACTIVATE),
        "core.pipeline.self_ms": layer_ms("core.pipeline"),
        "nn.models.encode_ms": total_ms(ENCODE),
        "engine.admission.report_ms": total_ms(SLO_REPORT),
        "engine.workloads.builds": count(BUILD),
        "engine.workloads.build_ms": total_ms(BUILD),
        "analysis.capacity.probes": attr_sum(CAPACITY, "probes") / n_ops,
        "analysis.capacity.probe_p50_ms": (
            statistics.median(span.dur_ns for span in probes) / 1e6
            if probes
            else 0.0
        ),
        "analysis.capacity.compute_share": (
            statistics.fmean(shares) if shares else 0.0
        ),
        "trace.overhead": (
            traced_p50_ms / untraced_p50_ms if untraced_p50_ms > 0 else 0.0
        ),
    }
