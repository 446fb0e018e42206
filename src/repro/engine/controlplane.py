"""Sharded fleet control plane: tenant routing, autoscaling, drains.

The ROADMAP's "millions of users" step: one :class:`~repro.engine.server.
FrameServer` is a single fleet with a single scheduler, which stops
scaling the moment the model zoo outgrows one node group or regional
demand stops being flat.  :class:`ControlPlane` layers the missing
machinery on top *without touching the data path*:

* **sharding** — the fleet splits into named shards (node groups), each
  its own plain ``FrameServer``; the zoo is placed per shard (replicate
  or partition), so a shard only programs the kernel sets it hosts;
* **routing** — every (tenant, model) pair lands on exactly one shard
  by rendezvous hashing (:mod:`repro.engine.router`: stable under
  node-count changes, bounded churn under shard-set changes, spillover
  around draining shards);
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
  siblings (cross-shard reuse).  Routing warms the landing dies of
  re-routed (tenant, model) pairs (preload-on-route), and a shard drain
  drops its dies' programs via
  :meth:`~repro.engine.cache.WeightProgramCache.invalidate_die` — which,
  because the seeds are shared, also drops the siblings' identical
  records; they reprogram bit-identically on next activation (the
  determinism contract of :mod:`repro.core.reference`), so the tradeoff
  costs host time, never changes a simulated quantity.

One serve path: :meth:`ControlPlane.serve` validates the stream with
:func:`~repro.engine.server.resolve_arrivals` (the plain server's own
boundary check) before anything is routed, routes every request,
serves each shard's partition (one bucket when static, one per control
window when autoscaled) and merges the pieces into one report.
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
import os
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
from repro.engine.store import ProgramStore
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
from repro.util.validation import check_positive

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
        check_positive("window_s", self.window_s)
        check_positive("min_nodes", self.min_nodes)
        if self.max_nodes < self.min_nodes:
            raise ValueError(
                f"max_nodes ({self.max_nodes}) must be >= min_nodes "
                f"({self.min_nodes})"
            )
        if self.fps_per_node is not None:
            check_positive("fps_per_node", self.fps_per_node)

    @staticmethod
    def parse(spec: str) -> "AutoscalerConfig":
        """Parse the CLI form ``"min:max[:window_s]"``."""
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"autoscale spec must be 'min:max[:window_s]', got {spec!r}"
            )
        kwargs: dict = {
            "min_nodes": int(parts[0]),
            "max_nodes": int(parts[1]),
        }
        if len(parts) == 3:
            kwargs["window_s"] = float(parts[2])
        return AutoscalerConfig(**kwargs)


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
    """One named node group: a plain ``FrameServer`` plus placement state."""

    def __init__(self, name: str, server: FrameServer) -> None:
        self.name = name
        self.server = server
        self.draining = False

    def hosts(self, model_key: str) -> bool:
        """Whether this shard's zoo slice includes ``model_key``."""
        return model_key in self.server._models

    def __repr__(self) -> str:
        return (
            f"Shard({self.name!r}, nodes={len(self.server.nodes)}, "
            f"draining={self.draining})"
        )


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
    #: Routing table snapshot: ``"tenant|model_key" -> shard name``.
    routes: dict[str, str] = field(default_factory=dict)
    #: (tenant, model) pairs whose shard changed during this run's routing.
    reroutes: int = 0
    #: (die, program) pairs warmed by preload-on-route.
    preloads: int = 0
    #: Scaling audit trail, in shard order then window order.
    decisions: list[ScalingDecision] = field(default_factory=list)
    #: Per-shard active-node count per window (autoscale path only).
    nodes_by_window: dict[str, list[int]] = field(default_factory=dict)
    #: Active node-seconds actually billed.
    node_seconds: float = 0.0
    #: Counterfactual: every shard at its built size over the same span.
    static_node_seconds: float = 0.0
    #: Shards drained before/under this serve call.
    drained: tuple[str, ...] = ()
    #: Cache entries released by drain-driven ``invalidate_die`` calls.
    cache_invalidations: int = 0

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
        Shard count (names ``s0..s{n-1}``) or explicit name list.
    nodes_per_shard:
        Static node count per shard; ignored when ``autoscaler`` is set
        (shards are then built at ``autoscaler.max_nodes``).
    autoscaler:
        Per-shard scaling policy; ``None`` serves statically.
    program_store:
        On-disk program artifacts (:class:`~repro.engine.store.
        ProgramStore` or a directory path) attached to the *shared*
        cache — cross-shard program reuse then extends across runs: a
        restarted control plane restores every (model, die) program
        from disk instead of reprogramming it.
    """

    def __init__(
        self,
        config: OISAConfig | None = None,
        shards: int | list[str] | tuple[str, ...] = 2,
        nodes_per_shard: int = 1,
        micro_batch: int = 16,
        seed: int | None = 0,
        policy: str = "greedy",
        autoscaler: AutoscalerConfig | None = None,
        program_store: ProgramStore | str | None = None,
    ) -> None:
        if isinstance(shards, int):
            check_positive("shards", shards)
            names = [f"s{index}" for index in range(shards)]
        else:
            names = [str(name) for name in shards]
        if not names:
            raise ValueError("a control plane needs at least one shard")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate shard names in {names!r}")
        check_positive("nodes_per_shard", nodes_per_shard)
        self.config = config or OISAConfig()
        self.cache = WeightProgramCache()
        if isinstance(program_store, (str, os.PathLike)):
            program_store = ProgramStore(program_store)
        if program_store is not None:
            self.cache.attach_store(program_store)
        self.router = RendezvousRouter(salt=seed or 0)
        self.autoscaler_config = autoscaler
        self._seed = seed
        size = autoscaler.max_nodes if autoscaler is not None else nodes_per_shard
        self.shards = [
            Shard(
                name,
                FrameServer(
                    self.config,
                    num_nodes=size,
                    micro_batch=micro_batch,
                    cache=self.cache,
                    seed=seed,
                    policy=policy,
                ),
            )
            for name in names
        ]
        #: Master zoo: every model any shard hosts (spillover placement
        #: registers from here when routing lands on a non-hosting shard).
        self._zoo: dict[str, Sequential] = {}
        self._route_of: dict[tuple[str, str], str] = {}
        self._reroutes = 0
        self._preloads = 0
        self._drained: list[str] = []
        self._invalidations = 0
        self._fps_per_node_cache: dict[tuple[str, str], float] = {}
        self._serving_scenario: str | None = None

    # ------------------------------------------------------------------
    # Placement and drains
    # ------------------------------------------------------------------
    def shard(self, name: str) -> Shard:
        """Look up a shard by name."""
        for shard in self.shards:
            if shard.name == name:
                return shard
        raise ValueError(
            f"unknown shard {name!r}; known: "
            f"{', '.join(s.name for s in self.shards)}"
        )

    def register_model(
        self,
        key: str,
        model: Sequential,
        shards: list[str] | tuple[str, ...] | None = None,
    ) -> None:
        """Place ``key`` on the named shards (default: replicate on all).

        Placement is idempotent and weight-checked per shard
        (:meth:`~repro.engine.server.FrameServer.adopt_models`), so
        re-registering the same model is a no-op and a conflicting
        redefinition fails loudly.
        """
        targets = (
            self.shards
            if shards is None
            else [self.shard(name) for name in shards]
        )
        for target in targets:
            target.server.adopt_models(
                {key: model}, origin=f"shard {target.name!r} placement"
            )
        self._zoo[key] = model

    def drain(self, name: str) -> int:
        """Take a shard out of routing and drop its dies' programs.

        The router skips draining shards (spillover: the next-best
        rendezvous winner absorbs each tenant), and each of the shard's
        dies' programs leave the shared cache via
        :meth:`~repro.engine.cache.WeightProgramCache.invalidate_die`.
        Because every shard shares the base seed, sibling shards'
        identical records are dropped too; they reprogram bit-identically
        on next activation (host-time cost only).  Returns the entries
        dropped.
        """
        shard = self.shard(name)
        if shard.draining:
            return 0
        shard.draining = True
        self._drained.append(name)
        dropped = 0
        for node in shard.server.nodes:
            dropped += self.cache.invalidate_die(node.opc.seed)
        self._invalidations += dropped
        # Routes into the drained shard stay in the table on purpose:
        # the next serve re-routes each of them (the router now skips the
        # drainee), and :meth:`route` sees the *change* — which is what
        # triggers spillover placement and preload-on-route for the
        # moved tenants.
        return dropped

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, tenant: str, model_key: str) -> Shard:
        """The shard this (tenant, model) pair serves on, with side effects.

        First assignment just records the route (no server or cache
        perturbation — the 1-shard bit-identity contract rides on this).
        A *changed* route additionally places the model on the landing
        shard if it does not host it (spillover placement) and warms the
        landing dies (preload-on-route: with shared seeds this is pure
        O(1) cache installs).
        """
        shard = self.router.route(tenant, model_key, self.shards)
        route_key = (tenant, model_key)
        previous = self._route_of.get(route_key)
        if previous == shard.name:
            return shard
        if not shard.hosts(model_key):
            model = self._zoo.get(model_key)
            if model is not None:
                shard.server.adopt_models(
                    {model_key: model},
                    origin=f"shard {shard.name!r} spillover placement",
                )
        if previous is not None:
            self._reroutes += 1
            if shard.hosts(model_key):
                warmed = shard.server.warmup([model_key])
                self._preloads += int(
                    warmed["cache_hits"] + warmed["cache_misses"]
                )
        self._route_of[route_key] = shard.name
        return shard

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
        ``requests`` with routes and caches untouched.  Then every
        request is routed, each shard's partition is served — as one
        bucket, or, when autoscaling, one bucket per control window —
        and the pieces merge back into one
        :class:`~repro.engine.server.ServeReport` with global indices,
        global node ids and recomputed SLO percentiles.  The merged
        report carries the routing/scaling accounting as
        ``report.controlplane``, and its ``wall_clock_s`` covers this
        whole call: validation, routing, capacity estimation, shard
        serves and merge.
        """
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

        per_shard: dict[str, list[tuple[int, FrameRequest, float]]] = {}
        for index, (request, arrival) in enumerate(zip(requests, arrivals)):
            shard = self.route(
                request.tenant or request.model_key, request.model_key
            )
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
                f"{tenant}|{model_key}": shard_name
                for (tenant, model_key), shard_name in sorted(
                    self._route_of.items()
                )
            },
            reroutes=self._reroutes,
            preloads=self._preloads,
            drained=tuple(self._drained),
            cache_invalidations=self._invalidations,
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
            fps_per_node = self._resolve_fps_per_node()
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

    def serve_scenario(
        self,
        scenario,
        offered_fps: float | None = None,
        placement: str = "replicate",
    ) -> ServeReport:
        """Serve a :class:`~repro.engine.workloads.Scenario` end-to-end.

        Places the scenario's zoo (``"replicate"`` puts every model on
        every shard; ``"partition"`` deals models round-robin across
        shards, leaving the router's spillover placement to fill gaps),
        adopts its SLO classes on every shard, and serves its request
        list.  While serving, a measured-capacity autoscaler resolves its
        per-node FPS against this scenario's name.
        """
        if placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, got {placement!r}"
            )
        for index, (key, model) in enumerate(scenario.models.items()):
            if placement == "replicate":
                self.register_model(key, model)
            else:
                target = self.shards[index % len(self.shards)]
                self.register_model(key, model, shards=[target.name])
        for shard in self.shards:
            shard.server.admission = AdmissionController(scenario.slo_classes)
        rate = (
            offered_fps if offered_fps is not None else scenario.offered_fps
        )
        self._serving_scenario = scenario.name
        try:
            return self.serve(scenario.requests, offered_fps=rate)
        finally:
            self._serving_scenario = None

    # ------------------------------------------------------------------
    # Serve internals
    # ------------------------------------------------------------------
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

    def _resolve_fps_per_node(self) -> float:
        """The controller's per-node capacity estimate [FPS]."""
        config = self.autoscaler_config
        if config.fps_per_node is not None:
            return config.fps_per_node
        policy = self.shards[0].server.policy.name
        scenario = self._serving_scenario or ""
        key = (scenario, policy)
        cached = self._fps_per_node_cache.get(key)
        if cached is not None:
            return cached
        value = 0.0
        if scenario.lower() in scenario_registry():
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
        self._fps_per_node_cache[key] = value
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
