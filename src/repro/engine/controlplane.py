"""Sharded fleet control plane: tenant routing and autoscaling.

The ROADMAP's "millions of users" step: one :class:`~repro.engine.server.
FrameServer` is a single fleet with a single scheduler, which stops
scaling the moment the model zoo outgrows one node group or regional
demand stops being flat.  :class:`ControlPlane` layers the missing
machinery on top *without touching the data path*:

* **sharding** — the fleet splits into ``n`` shards (node groups
  ``s0..s{n-1}``), each its own plain ``FrameServer``; the zoo is placed
  per shard (replicate or partition), so a shard only programs the
  kernel sets it hosts;
* **routing** — every (tenant, model) pair of a stream lands on exactly
  one shard by rendezvous hashing over the shards that host the model
  (:mod:`repro.engine.router`: stable under node-count changes).  Routes
  are a function of the placement and the stream being served, so a
  plane keeps none from one serve to the next;
* **autoscaling** — each shard's *active* node count tracks its own
  offered load window by window, using the capacity model from
  :func:`repro.analysis.capacity.sustainable_fps_per_node` (scale-up on
  the window's offered frame rate, every frame counted the same;
  scale-down only after a dwell period — the same hysteresis shape as
  the brownout controller).  The mechanism is
  :meth:`FrameServer.serve`'s ``node_limit``: shard servers
  are built at ``max_nodes`` and a window serves on the first *k* nodes
  — prefix-stable die seeds make that byte-identical to a k-node fleet,
  while the idle nodes above the limit are *warm spares* in the PR-8
  sense (their programs stay resident in the shared cache, so the next
  scale-up pays no cold mapping);
* **program-cache economics** — every shard shares *one*
  :class:`~repro.engine.cache.WeightProgramCache`.  All shard servers
  are built from the same base seed, so their die-seed sets are
  identical and a program computed on any shard is a cache hit on its
  siblings (cross-shard reuse).

One serve path: :meth:`ControlPlane.serve` validates the stream with
:func:`~repro.engine.server.resolve_arrivals` (the plain server's own
boundary check) before anything is routed, routes each of the stream's
(tenant, model) pairs once, serves each shard's partition (one bucket
when static, one per control window when autoscaled) and merges the
pieces into one report.
Bit-identity contract: on a 1-shard, autoscale-off plane the one
partition is the whole (non-empty) stream, so the merged report is
byte-identical to the plain ``FrameServer`` path
(``tests/test_controlplane_equivalence.py`` pins it against the serving
golden).  Determinism contract: routing
hashes only (salt, shard, tenant), the capacity estimate is a seeded
search, and the autoscaler is a pure function of the windowed offered
load — so the scaling-decision audit trail
(:meth:`ControlPlaneReport.decision_trail`) reproduces byte-for-byte for
a fixed (scenario, seed, config).

Windowed serving semantics (autoscale path only): the stream is chopped
into ``window_s`` slices per shard, each served as its own
:meth:`~repro.engine.server.FrameServer.serve` call with arrivals
rebased to the window start and events re-offset on merge.  Kernel
residency carries across windows (the cache and each node's programmed
model persist); node busy state does not — a frame admitted at a window
edge finishes into the next window while the next window starts free,
and under a queueing policy frames still queued at a window boundary
expire there.  Both effects are boundary artifacts of the windowing,
conservative in opposite directions and shrinking with ``window_s``; the
control-plane bench quantifies the net against the unwindowed static
fleet.

Units: ``window_s``/``node_seconds`` in *simulated* seconds (the stream
clock); node-seconds bill a shard's *active* nodes per window, and the
``static_node_seconds`` counterfactual bills every shard at
``max_nodes`` over the same windows — same duration convention, so the
saved fraction compares like with like.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace as dataclass_replace

from repro.core.config import OISAConfig
from repro.engine.admission import (
    AdmissionController,
    SloClassStats,
    SloReport,
)
from repro.engine.cache import WeightProgramCache
from repro.engine.router import RendezvousRouter
from repro.engine.server import (
    FrameRequest,
    FrameResponse,
    FrameServer,
    ServeReport,
    resolve_arrivals,
)
from repro.engine.workloads import scenario_registry
from repro.nn.layers import Sequential
from repro.sim.stream import StreamEvent, StreamReport, nearest_rank_percentile
from repro.util.validation import (
    check_count,
    check_finite_non_negative,
    check_positive,
    parse_field,
    registry_key,
)

#: Zoo placement modes :meth:`ControlPlane.serve_scenario` accepts.
PLACEMENTS = ("replicate", "partition")

#: Scale up when a window's offered load over capacity exceeds this; the
#: scale-up sizes the shard so the observed load sits back at or below it.
TARGET_UTILIZATION = 0.70
#: A window below this utilization counts toward the scale-down dwell
#: (strictly below :data:`TARGET_UTILIZATION`: the hysteresis band).
SCALE_DOWN_UTILIZATION = 0.35
#: Consecutive low windows required before removing one node — and,
#: because a scale-up resets the streak, the minimum spacing between a
#: scale-up and any later scale-down (the no-flap guarantee
#: ``tests/test_engine_controlplane.py`` pins).
DWELL_WINDOWS = 2


@dataclass(frozen=True)
class AutoscalerConfig:
    """Per-shard autoscaling policy.

    Parameters
    ----------
    window_s:
        Control interval [simulated s]: load is observed and node counts
        adjusted once per window.
    min_nodes / max_nodes:
        Active-node bounds per shard; shard servers are built at
        ``max_nodes`` so scale-ups only ever *unmask* warm nodes.
    fps_per_node:
        Capacity model: sustainable FPS of one node on this traffic.
        ``None`` (default) measures it per (scenario, policy) via
        :func:`repro.analysis.capacity.sustainable_fps_per_node`.

    The utilization thresholds and the scale-down dwell are the module
    constants :data:`TARGET_UTILIZATION`, :data:`SCALE_DOWN_UTILIZATION`
    and :data:`DWELL_WINDOWS`.
    """

    window_s: float = 0.05
    min_nodes: int = 1
    max_nodes: int = 4
    fps_per_node: float | None = None

    def __post_init__(self) -> None:
        # Finite as well as positive: window starts are multiples of
        # ``window_s``, and 0 * inf is NaN.
        check_positive("window_s", self.window_s)
        check_finite_non_negative("window_s", self.window_s)
        check_count("min_nodes", self.min_nodes)
        check_count("max_nodes", self.max_nodes, minimum=self.min_nodes)
        if self.fps_per_node is not None:
            check_positive("fps_per_node", self.fps_per_node)
            check_finite_non_negative("fps_per_node", self.fps_per_node)

    @staticmethod
    def parse(spec: str) -> "AutoscalerConfig":
        """Parse the CLI form ``"min:max[:window_s]"``."""
        form = "min:max[:window_s]"
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"autoscale spec must be {form!r}, got {spec!r}")
        fields = (("min_nodes", int), ("max_nodes", int), ("window_s", float))
        return AutoscalerConfig(
            **{
                name: parse_field(kind, name, text, form)
                for (name, kind), text in zip(fields, parts)
            }
        )


@dataclass(frozen=True)
class ScalingDecision:
    """One audit-trail entry: a shard's node count changed."""

    shard: str
    #: Window whose observation triggered the change (the new count takes
    #: effect at the *next* window boundary — the controller is reactive).
    window: int
    #: Stream time the change takes effect [s].
    time_s: float
    from_nodes: int
    to_nodes: int
    #: Offered load observed in ``window`` [FPS].
    offered_fps: float
    #: Capacity at ``from_nodes`` under the controller model [FPS].
    capacity_fps: float
    #: ``offered_fps / capacity_fps`` — the quantity the thresholds gate.
    pressure: float
    reason: str

    def line(self) -> str:
        """Canonical one-line form — ``repr`` floats, so byte-stable."""
        return (
            f"{self.shard} w{self.window} t={self.time_s!r} "
            f"{self.from_nodes}->{self.to_nodes} offered={self.offered_fps!r} "
            f"capacity={self.capacity_fps!r} pressure={self.pressure!r} "
            f"{self.reason}"
        )


class Autoscaler:
    """Reactive per-shard node-count controller with scale-down dwell.

    Pure and deterministic: the node trajectory is a function of the
    windowed offered-load sequence and the config alone — no wall clock,
    no RNG.  One instance lives for one serve call (like the health
    monitor), so the decision trail is per-stream.

    Starts at ``max_nodes`` (warm start): the safe direction is to trim
    an over-provisioned shard down, not to discover under-provisioning
    on live deadline traffic.
    """

    def __init__(
        self, shard: str, config: AutoscalerConfig, fps_per_node: float
    ) -> None:
        check_positive("fps_per_node", fps_per_node)
        self.shard = shard
        self.config = config
        self.fps_per_node = float(fps_per_node)
        self.nodes = config.max_nodes
        self.decisions: list[ScalingDecision] = []
        self._low_streak = 0

    def observe(self, window: int, offered_fps: float) -> int:
        """Digest one window's offered load; return the next node count."""
        config = self.config
        capacity = self.nodes * self.fps_per_node
        pressure = offered_fps / capacity
        effect_s = (window + 1) * config.window_s
        if pressure > TARGET_UTILIZATION:
            # Jump straight to the count that brings utilization back to
            # target — a one-node step would chase a fast ramp forever.
            needed = math.ceil(
                offered_fps / (TARGET_UTILIZATION * self.fps_per_node)
            )
            to_nodes = max(self.nodes, min(config.max_nodes, needed))
            self._low_streak = 0
            if to_nodes > self.nodes:
                self.decisions.append(
                    ScalingDecision(
                        shard=self.shard,
                        window=window,
                        time_s=effect_s,
                        from_nodes=self.nodes,
                        to_nodes=to_nodes,
                        offered_fps=offered_fps,
                        capacity_fps=capacity,
                        pressure=pressure,
                        reason="scale-up:pressure",
                    )
                )
                self.nodes = to_nodes
        elif pressure < SCALE_DOWN_UTILIZATION:
            self._low_streak += 1
            if (
                self._low_streak >= DWELL_WINDOWS
                and self.nodes > config.min_nodes
            ):
                # One node at a time: scale-downs are the risky direction
                # (a miscalibrated capacity model under-provisions live
                # deadline traffic), so they creep while scale-ups jump.
                self.decisions.append(
                    ScalingDecision(
                        shard=self.shard,
                        window=window,
                        time_s=effect_s,
                        from_nodes=self.nodes,
                        to_nodes=self.nodes - 1,
                        offered_fps=offered_fps,
                        capacity_fps=capacity,
                        pressure=pressure,
                        reason="scale-down:idle",
                    )
                )
                self.nodes -= 1
                self._low_streak = 0
        else:
            # The hysteresis band: neither direction, and the dwell
            # restarts — a blip back to normal load forgives nothing.
            self._low_streak = 0
        return self.nodes


class Shard:
    """One node group: a plain ``FrameServer`` and the name routes use."""

    def __init__(self, name: str, server: FrameServer) -> None:
        self.name = name
        self.server = server

    def hosts(self, model_key: str) -> bool:
        """Whether this shard's zoo slice includes ``model_key``."""
        return model_key in self.server._models

    def __repr__(self) -> str:
        return f"Shard({self.name!r}, nodes={len(self.server.nodes)})"


@dataclass
class ControlPlaneReport:
    """Routing + scaling accounting of one control-plane serve call."""

    #: Router spec (salt included) the routes were computed under.
    router: str
    #: Shard names in registration order.
    shards: list[str]
    #: Built node count per shard (``max_nodes`` when autoscaled).
    shard_nodes: dict[str, int]
    autoscaled: bool
    #: Control interval (``None`` on the unwindowed static path).
    window_s: float | None
    #: Windows served (0 on the static path).
    windows: int
    #: This serve's routes, sorted: ``"tenant|model_key" -> shard name``.
    routes: dict[str, str] = field(default_factory=dict)
    #: Scaling audit trail, in shard order then window order.
    decisions: list[ScalingDecision] = field(default_factory=list)
    #: Per-shard active-node count per window (autoscale path only).
    nodes_by_window: dict[str, list[int]] = field(default_factory=dict)
    #: Active node-seconds actually billed.
    node_seconds: float = 0.0
    #: Counterfactual: every shard at its built size over the same span.
    static_node_seconds: float = 0.0

    @property
    def node_seconds_saved_frac(self) -> float:
        """Fraction of the static fleet's node-seconds the scaler saved."""
        if self.static_node_seconds <= 0.0:
            return 0.0
        return 1.0 - self.node_seconds / self.static_node_seconds

    def decision_trail(self) -> str:
        """The byte-deterministic audit trail, one decision per line."""
        return "\n".join(decision.line() for decision in self.decisions)


class ControlPlane:
    """Shards + router + autoscaler over a zoo of plain frame servers.

    Parameters mirror :class:`~repro.engine.server.FrameServer` where
    they configure the per-shard servers (every shard shares the same
    base ``seed`` — identical die-seed sets are what make cross-shard
    program reuse and warm-spare scale-up free — and one fresh
    :class:`~repro.engine.cache.WeightProgramCache`).  The fault/chaos/
    failover layers deliberately do not compose here: shard servers are
    built plain (see ``FrameServer.serve``'s ``node_limit`` contract).
    Tenants route by :class:`~repro.engine.router.RendezvousRouter`
    salted with the base seed.

    Parameters
    ----------
    shards:
        Shard count; the shards are named ``s0..s{n-1}``.
    nodes_per_shard:
        Static node count per shard; ignored when ``autoscaler`` is set
        (shards are then built at ``autoscaler.max_nodes``).
    autoscaler:
        Per-shard scaling policy; ``None`` serves statically.
    """

    def __init__(
        self,
        config: OISAConfig | None = None,
        shards: int = 2,
        nodes_per_shard: int = 1,
        micro_batch: int = 16,
        seed: int | None = 0,
        policy: str = "greedy",
        autoscaler: AutoscalerConfig | None = None,
    ) -> None:
        check_count("shards", shards)
        check_count("nodes_per_shard", nodes_per_shard)
        self.config = config or OISAConfig()
        self.cache = WeightProgramCache()
        self.router = RendezvousRouter(salt=seed or 0)
        self.autoscaler_config = autoscaler
        self._seed = seed
        size = autoscaler.max_nodes if autoscaler is not None else nodes_per_shard
        self.shards = [
            Shard(
                f"s{index}",
                FrameServer(
                    self.config,
                    num_nodes=size,
                    micro_batch=micro_batch,
                    cache=self.cache,
                    seed=seed,
                    policy=policy,
                ),
            )
            for index in range(shards)
        ]

    def register_model(self, key: str, model: Sequential) -> None:
        """Place ``key`` on every shard (replication).

        Placement is idempotent and weight-checked per shard
        (:meth:`~repro.engine.server.FrameServer.adopt_models`), so
        re-registering the same model is a no-op and a conflicting
        redefinition fails loudly.
        """
        for shard in self.shards:
            shard.server.adopt_models(
                {key: model}, origin=f"shard {shard.name!r} placement"
            )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(
        self,
        requests: list[FrameRequest],
        offered_fps: float | None = None,
    ) -> ServeReport:
        """Validate, route, (optionally) autoscale and serve one stream.

        The stream is checked against every model the shards host by
        :func:`~repro.engine.server.resolve_arrivals` before anything is
        routed, so bad input raises ``ValueError`` naming its index in
        ``requests`` with the shards and the cache untouched.  Then each
        (tenant, model) pair is routed once, each shard's partition is
        served — as one bucket, or, when autoscaling, one bucket per
        control window — and the pieces merge back into one
        :class:`~repro.engine.server.ServeReport` with global indices,
        global node ids and recomputed SLO percentiles.  The merged
        report carries the routing/scaling accounting as
        ``report.controlplane``, and its ``wall_clock_s`` covers this
        whole call: validation, routing, capacity estimation, shard
        serves and merge.
        """
        return self._serve(requests, offered_fps, scenario="")

    def serve_scenario(
        self,
        scenario,
        offered_fps: float | None = None,
        placement: str = "replicate",
    ) -> ServeReport:
        """Serve a :class:`~repro.engine.workloads.Scenario` end-to-end.

        Places the scenario's zoo (``"replicate"`` puts every model on
        every shard; ``"partition"`` deals models round-robin across
        shards), adopts its SLO classes on every shard, and serves its
        request list.  A measured-capacity autoscaler resolves its
        per-node FPS against this scenario's name.
        """
        placement = registry_key("placement", placement, PLACEMENTS)
        for index, (key, model) in enumerate(scenario.models.items()):
            if placement == "replicate":
                self.register_model(key, model)
            else:
                target = self.shards[index % len(self.shards)]
                target.server.adopt_models(
                    {key: model}, origin=f"shard {target.name!r} placement"
                )
        for shard in self.shards:
            shard.server.admission = AdmissionController(scenario.slo_classes)
        rate = (
            offered_fps if offered_fps is not None else scenario.offered_fps
        )
        return self._serve(scenario.requests, rate, scenario=scenario.name)

    # ------------------------------------------------------------------
    # Serve internals
    # ------------------------------------------------------------------
    def _serve(
        self,
        requests: list[FrameRequest],
        offered_fps: float | None,
        scenario: str,
    ) -> ServeReport:
        """:meth:`serve`, with the name of the scenario (empty for none)
        a measured-capacity autoscaler resolves its per-node FPS on."""
        started = time.perf_counter()
        rate = (
            offered_fps
            if offered_fps is not None
            else self.config.frame_rate_hz
        )
        models = {}
        for shard in self.shards:
            models.update(shard.server._models)
        arrivals = resolve_arrivals(requests, models, rate)
        duration = max(arrivals, default=0.0)

        routes: dict[tuple[str, str], Shard] = {}
        per_shard: dict[str, list[tuple[int, FrameRequest, float]]] = {}
        for index, (request, arrival) in enumerate(zip(requests, arrivals)):
            pair = (request.tenant or request.model_key, request.model_key)
            shard = routes.get(pair)
            if shard is None:
                shard = routes[pair] = self.router.route(*pair, self.shards)
            per_shard.setdefault(shard.name, []).append(
                (index, request, arrival)
            )

        config = self.autoscaler_config
        plane = ControlPlaneReport(
            router=repr(self.router),
            shards=[shard.name for shard in self.shards],
            shard_nodes={
                shard.name: len(shard.server.nodes) for shard in self.shards
            },
            autoscaled=config is not None,
            window_s=None if config is None else config.window_s,
            windows=0,
            routes={
                f"{tenant}|{model_key}": routes[tenant, model_key].name
                for tenant, model_key in sorted(routes)
            },
        )
        pieces = []
        if config is None:
            for shard in self.shards:
                bucket = per_shard.get(shard.name)
                if bucket:
                    pieces.append(self._serve_bucket(shard, bucket, 0.0, rate))
            plane.node_seconds = plane.static_node_seconds = (
                sum(len(shard.server.nodes) for shard in self.shards)
                * duration
            )
        else:
            plane.windows = max(
                1, math.ceil((duration + 1e-12) / config.window_s)
            )
            fps_per_node = self._resolve_fps_per_node(scenario)
            for shard in self.shards:
                scaler = Autoscaler(shard.name, config, fps_per_node)
                trajectory = plane.nodes_by_window[shard.name] = []
                buckets: list[list[tuple[int, FrameRequest, float]]] = [
                    [] for _ in range(plane.windows)
                ]
                for entry in per_shard.get(shard.name, []):
                    window = int(entry[2] // config.window_s)
                    buckets[min(window, plane.windows - 1)].append(entry)
                for window, bucket in enumerate(buckets):
                    active = scaler.nodes
                    trajectory.append(active)
                    plane.node_seconds += active * config.window_s
                    if bucket:
                        start = window * config.window_s
                        pieces.append(
                            self._serve_bucket(
                                shard, bucket, start, rate, active
                            )
                        )
                    scaler.observe(window, len(bucket) / config.window_s)
                plane.decisions.extend(scaler.decisions)
            plane.static_node_seconds = (
                len(self.shards)
                * config.max_nodes
                * plane.windows
                * config.window_s
            )
        report = self._merge(requests, pieces)
        report.controlplane = plane
        report.wall_clock_s = time.perf_counter() - started
        return report

    def _serve_bucket(
        self,
        shard: Shard,
        bucket: list[tuple[int, FrameRequest, float]],
        start: float,
        rate: float,
        nodes: int | None = None,
    ) -> tuple[Shard, float, list, ServeReport]:
        """Serve ``bucket`` on ``shard``'s first ``nodes`` nodes (all by
        default) with arrivals rebased to its window ``start`` [s]."""
        sub = [
            dataclass_replace(request, arrival_s=arrival - start)
            for _, request, arrival in bucket
        ]
        served = shard.server.serve(sub, offered_fps=rate, node_limit=nodes)
        return shard, start, bucket, served

    def _resolve_fps_per_node(self, scenario: str) -> float:
        """The controller's per-node capacity estimate [FPS] on the
        scenario named ``scenario``."""
        config = self.autoscaler_config
        if config.fps_per_node is not None:
            return config.fps_per_node
        policy = self.shards[0].server.policy.name
        value = 0.0
        if scenario in scenario_registry():
            from repro.analysis.capacity import sustainable_fps_per_node

            value = sustainable_fps_per_node(
                scenario, policy=policy, seed=self._seed or 0
            )
        if value <= 0.0:
            # No registered scenario to measure (a plain serve(), or an
            # ad-hoc ``--models`` stream the registry cannot rebuild) or
            # an unsustainable floor: fall back to the analytic
            # LeNet-first-layer bound.
            from repro.analysis.capacity import LENET_FIRST_LAYER
            from repro.sim.fleet import FleetModel

            value = FleetModel(self.config).sustainable_fps(LENET_FIRST_LAYER)
        return value

    def _merge(
        self,
        requests: list[FrameRequest],
        pieces: list[tuple[Shard, float, list, ServeReport]],
    ) -> ServeReport:
        """Stitch per-shard (or per-window) sub-reports into one report.

        Global request indices come back from the partition bookkeeping,
        node ids get per-shard offsets (shard registration order), event
        clocks are re-offset by each piece's window start, SLO class
        counters sum additively and the percentiles are recomputed from
        the merged latency lists with the same deterministic
        nearest-rank rule the per-shard reports used.
        """
        node_offset: dict[str, int] = {}
        accumulated = 0
        for shard in self.shards:
            node_offset[shard.name] = accumulated
            accumulated += len(shard.server.nodes)

        responses: list[FrameResponse | None] = [None] * len(requests)
        stream = StreamReport()
        merged = ServeReport(stream=stream)
        node_frames: dict[int, int] = {}
        slo_classes: dict[str, SloClassStats] = {}
        latencies: dict[str, list[float]] = {}
        any_slo = False
        admission = self.shards[0].server.admission
        for shard, start, entries, sub_report in pieces:
            offset = node_offset[shard.name]
            for local_index, (global_index, _, _) in enumerate(entries):
                response = sub_report.responses[local_index]
                event = response.event
                shifted = StreamEvent(
                    index=global_index,
                    arrival_s=self._shift(event.arrival_s, start),
                    start_s=self._shift(event.start_s, start),
                    finish_s=self._shift(event.finish_s, start),
                    dropped=event.dropped,
                    remapped=event.remapped,
                )
                node_id = response.node_id
                responses[global_index] = FrameResponse(
                    global_index,
                    response.model_key,
                    node_id + offset if node_id >= 0 else node_id,
                    response.output,
                    shifted,
                    degraded=response.degraded,
                    served_model=response.served_model,
                )
            stream.total_energy_j += sub_report.stream.total_energy_j
            merged.cache_hits += sub_report.cache_hits
            merged.cache_misses += sub_report.cache_misses
            merged.payload_bytes += sub_report.payload_bytes
            merged.radio_energy_j += sub_report.radio_energy_j
            for node_id, count in sub_report.node_frames.items():
                global_node = node_id + offset
                node_frames[global_node] = (
                    node_frames.get(global_node, 0) + count
                )
            if sub_report.slo is not None:
                any_slo = True
                for name, stats in sub_report.slo.classes.items():
                    aggregate = slo_classes.get(name)
                    if aggregate is None:
                        aggregate = SloClassStats(
                            name=stats.name,
                            priority=stats.priority,
                            deadline_s=stats.deadline_s,
                        )
                        slo_classes[name] = aggregate
                        latencies[name] = []
                    aggregate.offered += stats.offered
                    aggregate.delivered += stats.delivered
                    aggregate.dropped_busy += stats.dropped_busy
                    aggregate.shed += stats.shed
                    aggregate.expired += stats.expired
                    aggregate.lost += stats.lost
                    aggregate.deadline_hits += stats.deadline_hits
                    aggregate.deadline_misses += stats.deadline_misses

        missing = [i for i, response in enumerate(responses) if response is None]
        if missing:  # the router is total, so this is a partition bug
            raise RuntimeError(
                f"merge lost {len(missing)} responses (first: {missing[:3]})"
            )
        merged.responses = [response for response in responses]
        stream.events.extend(
            sorted(
                (response.event for response in merged.responses),
                key=lambda event: (event.arrival_s, event.index),
            )
        )
        merged.node_frames = dict(sorted(node_frames.items()))
        if any_slo:
            for response in merged.responses:
                if response.dropped:
                    continue
                name = admission.slo_for(response.model_key).name
                if name in latencies:
                    latencies[name].append(response.event.latency_s)
            for name, stats in slo_classes.items():
                values = latencies[name]
                if values:
                    stats.p50_latency_s = nearest_rank_percentile(values, 0.50)
                    stats.p99_latency_s = nearest_rank_percentile(values, 0.99)
            merged.slo = SloReport(
                policy=self.shards[0].server.policy.name,
                classes=slo_classes,
            )
        return merged

    @staticmethod
    def _shift(value: float, offset: float) -> float:
        """Re-offset one event clock field (NaN/inf pass through)."""
        return value + offset if math.isfinite(value) else value


__all__ = [
    "DWELL_WINDOWS",
    "PLACEMENTS",
    "SCALE_DOWN_UTILIZATION",
    "TARGET_UTILIZATION",
    "Autoscaler",
    "AutoscalerConfig",
    "ControlPlane",
    "ControlPlaneReport",
    "ScalingDecision",
    "Shard",
]
