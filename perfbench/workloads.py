"""The four benchmark workloads, driven through public entry points only.

Each workload builds its inputs (and, for the warm workloads, its server)
from the seed in :meth:`Workload.setup`, runs one operation in
:meth:`Workload.op` — the call the runner times from outside — and
reduces the operation's result to an :class:`Outcome` in
:meth:`Workload.outcome`.  The program receives only the generated
inputs; no workload passes a compute mode or calls a private method.

Why these four, and which layer each one stresses, is recorded in
``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from repro.analysis import capacity
from repro.engine import FrameRequest, FrameServer
from repro.engine import workloads as scenarios
from repro.nn.quant import QuantDense


@dataclass(frozen=True)
class Outcome:
    """What one op produced, reduced to comparable digests."""

    #: Simulated outcome only (events, drops, energy, SLO stats, points):
    #: identical for every op and every run at one seed; pinned for seed 0.
    sim_digest: str
    #: ``sim_digest`` plus host-side counters (cache hits/misses): must
    #: equal the first op's within a run.
    full_digest: str
    #: Frames the op delivered (probe frames served, for capacity-sweep).
    frames: int
    #: Invariant violations found in the result.
    problems: tuple[str, ...] = ()
    #: ``repr(report.points)`` for capacity-sweep, else ``None``.
    points_repr: str | None = None


@dataclass
class State:
    """Inputs (and the warmed server) one workload's ops run against."""

    seed: int
    requests: list
    models: dict
    #: Expected output shape per model key (from the float model).
    shapes: dict | None = None
    server: FrameServer | None = None
    scenario: object | None = None
    settings: capacity.CapacitySettings | None = None


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _f(value) -> str:
    return repr(float(value))


def _input_digest(requests, models) -> str:
    digest = hashlib.sha256()
    for request in requests:
        arrival = None if request.arrival_s is None else _f(request.arrival_s)
        digest.update(repr((request.model_key, arrival, request.tenant)).encode())
        digest.update(np.ascontiguousarray(request.frame, dtype=float).tobytes())
    for key, model in models.items():
        digest.update(key.encode())
        for parameter in model.parameters():
            digest.update(np.ascontiguousarray(parameter.data).tobytes())
    return digest.hexdigest()


def _output_shapes(requests, models) -> dict:
    """Logit shape per model key, from one frame through the float model."""
    shapes = {}
    for request in requests:
        if request.model_key not in shapes:
            model = models[request.model_key]
            frame = np.asarray(request.frame, dtype=float)[None]
            if isinstance(model.layers[1], QuantDense):  # dense stems take flat frames
                frame = frame.reshape(1, -1)
            logits = model.forward(frame)
            shapes[request.model_key] = logits.shape[1:]
    return shapes


def _sim_repr(report) -> str:
    """The simulated part of a serve report, with every float as ``repr``."""
    events = [
        (e.index, _f(e.arrival_s), _f(e.start_s), _f(e.finish_s), bool(e.dropped), bool(e.remapped))
        for e in report.stream.events
    ]
    placements = [
        (r.index, r.model_key, int(r.node_id), r.served_model, bool(r.degraded))
        for r in report.responses
    ]
    slo = None
    if report.slo is not None:
        slo = [
            (
                name,
                s.offered,
                s.delivered,
                s.dropped_busy,
                s.shed,
                s.expired,
                s.lost,
                s.deadline_hits,
                s.deadline_misses,
                _f(s.p50_latency_s),
                _f(s.p99_latency_s),
            )
            for name, s in report.slo.classes.items()
        ]
    return repr(
        (
            events,
            placements,
            _f(report.stream.total_energy_j),
            sorted((int(k), int(v)) for k, v in report.node_frames.items()),
            int(report.payload_bytes),
            _f(report.radio_energy_j),
            slo,
        )
    )


def serve_outcome(report, requests, shapes) -> Outcome:
    """Check one serve report's invariants and digest its outcome."""
    problems = []
    offered = len(requests)
    if report.stream.frames != offered or len(report.responses) != offered:
        problems.append(
            f"{report.stream.frames} events and {len(report.responses)} "
            f"responses for {offered} requests"
        )
    delivered = 0
    for response in report.responses:
        output = response.output
        if response.dropped:
            if output is not None:
                problems.append(f"dropped frame {response.index} has an output")
            continue
        delivered += 1
        expected = shapes[response.served_model or response.model_key]
        if output is None or output.shape != expected:
            shape = None if output is None else output.shape
            problems.append(f"frame {response.index}: output {shape}, expected {expected}")
        elif not np.isfinite(output).all():
            problems.append(f"frame {response.index}: non-finite output")
    if delivered + report.stream.dropped != offered:
        problems.append(
            f"delivered {delivered} + dropped {report.stream.dropped} != offered {offered}"
        )
    sim = _sim_repr(report)
    host = repr((int(report.cache_hits), int(report.cache_misses)))
    return Outcome(
        sim_digest=_sha(sim),
        full_digest=_sha(sim + host),
        frames=delivered,
        problems=tuple(problems[:5]),
    )


class Workload:
    """One named workload: seeded inputs, one timed op, outcome checks."""

    name = ""
    #: Fixed parameters, printed in the run manifest.
    params: dict = {}

    def setup(self, seed: int) -> State:
        raise NotImplementedError

    def op(self, state: State):
        raise NotImplementedError

    def outcome(self, state: State, result) -> Outcome:
        return serve_outcome(result, state.requests, state.shapes)

    def input_digest(self, state: State) -> str:
        return _input_digest(state.requests, state.models)


class MlpStream(Workload):
    """Warmed 2-node server; one 2048-frame uniform MLP stream per op."""

    name = "mlp-stream"
    params = {
        "model": "mlp-2b",
        "frames": 2048,
        "offered_fps": 1800.0,
        "nodes": 2,
        "micro_batch": 16,
        "policy": "greedy",
    }

    def setup(self, seed: int) -> State:
        spec = scenarios.ModelSpec("mlp", 2)
        rng = np.random.default_rng(seed)
        stack = rng.uniform(0.0, 1.0, (self.params["frames"],) + spec.frame_shape)
        requests = [FrameRequest(frame, spec.key) for frame in stack]
        models = {spec.key: spec.build(seed)}
        server = FrameServer(
            num_nodes=self.params["nodes"],
            micro_batch=self.params["micro_batch"],
            seed=seed,
        )
        server.register_model(spec.key, models[spec.key])
        server.warmup(frame_shape=spec.frame_shape)
        state = State(
            seed, requests, models, _output_shapes(requests, models), server
        )
        self.op(state)  # first serve: lazy per-stream set-up
        return state

    def op(self, state: State):
        return state.server.serve(
            state.requests, offered_fps=self.params["offered_fps"]
        )


class TenantMix(Workload):
    """The serving-policy bench point: mixed tenants, slo policy, warmed.

    The traffic mix (arrivals, tenants, model choice, weights) and the
    dies are the scenario's at ``TRAFFIC_SEED``; the benchmark seed draws
    the frames.  A scenario seed alone moves the share of conv-heavy
    VGG frames by about 12 % (binomial model choice), which would swamp
    the run-to-run comparison this workload exists for.
    """

    name = "tenant-mix"
    TRAFFIC_SEED = 0
    params = {
        "scenario": "mixed-tenants",
        "frames": 300,
        "offered_fps": 2600.0,
        "nodes": 2,
        "micro_batch": 8,
        "policy": "slo",
        "traffic_seed": TRAFFIC_SEED,
        "frames_from": "benchmark seed",
    }

    def setup(self, seed: int) -> State:
        traffic = scenarios.build_scenario(
            self.params["scenario"],
            frames=self.params["frames"],
            offered_fps=self.params["offered_fps"],
            seed=self.TRAFFIC_SEED,
        )
        rng = np.random.default_rng(seed)
        scenario = replace(
            traffic,
            requests=[
                replace(
                    request, frame=rng.uniform(0.0, 1.0, np.shape(request.frame))
                )
                for request in traffic.requests
            ],
        )
        server = FrameServer(
            num_nodes=self.params["nodes"],
            micro_batch=self.params["micro_batch"],
            seed=self.TRAFFIC_SEED,
            policy=self.params["policy"],
        )
        server.adopt_models(scenario.models)
        server.warmup()
        state = State(
            seed,
            scenario.requests,
            scenario.models,
            _output_shapes(scenario.requests, scenario.models),
            server,
            scenario,
        )
        self.op(state)  # first serve: lazy per-stream set-up
        return state

    def op(self, state: State):
        return state.server.serve_scenario(state.scenario)


class ZooCold(Workload):
    """``repro serve --scenario zoo --nodes 4`` without the CLI: cold per op."""

    name = "zoo-cold"
    params = {
        "scenario": "zoo",
        "frames": 64,
        "offered_fps": 1000.0,
        "nodes": 4,
        "micro_batch": 16,
        "policy": "greedy",
        "cache": "fresh, memory-only, per op",
    }

    def setup(self, seed: int) -> State:
        scenario = scenarios.build_scenario(
            self.params["scenario"],
            frames=self.params["frames"],
            offered_fps=self.params["offered_fps"],
            seed=seed,
        )
        return State(
            seed,
            scenario.requests,
            scenario.models,
            _output_shapes(scenario.requests, scenario.models),
            scenario=scenario,
        )

    def op(self, state: State):
        server = FrameServer(
            num_nodes=self.params["nodes"],
            micro_batch=self.params["micro_batch"],
            seed=state.seed,
        )
        return server.serve_scenario(
            state.scenario, offered_fps=self.params["offered_fps"]
        )


class CapacitySweep(Workload):
    """One serial ``build_capacity_report(CapacitySettings(seed=seed))``."""

    name = "capacity-sweep"
    params = {
        "call": "build_capacity_report(CapacitySettings(seed=seed))",
        "scenario": "poisson",
        "policies": ["greedy", "slo"],
        "node_counts": [1, 2, 4],
        "frames_per_probe": 240,
        "parallel": "serial",
    }

    def setup(self, seed: int) -> State:
        settings = capacity.CapacitySettings(seed=seed)
        # The probes regenerate the scenario per offered rate; the stream
        # at the search floor stands for the inputs in the input digest.
        scenario = scenarios.build_scenario(
            settings.scenario,
            frames=settings.frames,
            offered_fps=settings.fps_floor,
            seed=seed,
        )
        return State(seed, scenario.requests, scenario.models, settings=settings)

    def op(self, state: State):
        return capacity.build_capacity_report(state.settings)

    def outcome(self, state: State, report) -> Outcome:
        settings = state.settings
        problems = []
        grid = len(settings.policies) * len(settings.node_counts)
        if len(report.points) != grid:
            problems.append(f"{len(report.points)} capacity points for a {grid}-point grid")
        if any(point.probes < 1 for point in report.points):
            problems.append("a capacity point spent no probes")
        points = repr(report.points)
        digest = _sha(points + _f(report.analytic_node_fps))
        return Outcome(
            sim_digest=digest,
            full_digest=digest,
            frames=sum(point.probes for point in report.points) * settings.frames,
            problems=tuple(problems),
            points_repr=points,
        )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (MlpStream(), TenantMix(), ZooCold(), CapacitySweep())
}
