"""Frame-serving facade: cache + health + scheduler wired into one server.

``FrameServer`` turns the per-figure evaluation stack into a serving path:
frame requests tagged with a model key arrive at an offered rate, pass
through admission control (:mod:`repro.engine.admission` SLO classes and
load shedding), get placed on nodes by a pluggable scheduling policy
(:mod:`repro.engine.scheduler` — greedy-FIFO by default, EDF and
SLO-aware weighted fair queuing for multi-tenant mixes), and the admitted
frames run through :class:`~repro.core.pipeline.HardwareFirstLayerPipeline`
in micro-batches.  Three mechanisms make it faster and more scalable than
a per-frame loop:

* **vectorized warm path** — admitted frames are stacked and
  ternary-encoded once per (model, frame geometry) across the whole
  fleet, then each per-(node, model) run computes in a single batched
  forward (row-stable ops over the full run, BLAS matrix products at the
  ``micro_batch`` partition), amortising the per-call overhead of the
  whole layer stack; the pre-vectorization per-chunk loop is retained as
  ``compute_mode="reference"`` and the two are bit-identical
  (``tests/test_engine_batched.py``);
* **weight-program caching** — kernel swaps reinstall cached
  :class:`~repro.core.opc.ProgrammedWeights` records instead of re-running
  the AWC mapping chain (:mod:`repro.engine.cache`);
* **multi-node scheduling** — requests spread across N simulated nodes
  (distinct die seeds) with model affinity, reusing the
  :mod:`repro.sim.fleet` radio/payload models for the transport budget.

Simulated-hardware semantics stay honest: a kernel swap still pays the
mapping phase in *simulated* time and energy — the cache only removes the
redundant *host-side* recomputation of the realized weights.

Under a :class:`~repro.engine.health.FaultProfile` the server additionally
samples per-node health mid-stream (thermal drift, injected upsets),
routes frames around recalibrating or dead nodes, and reports
degraded/recovered statistics (:class:`ServeReport.health`).  With no
profile the health path is absent and serving is bit-identical to the
pre-health engine.

``serve(..., compute=False)`` is the schedule-only mode: everything
above runs except the host-side logits, so analyses that read only the
simulated-time outcome (capacity search, resilience drills) skip the
compute stage entirely.

Units: arrivals/latencies in *simulated* seconds (``arrival_s``,
``StreamEvent`` fields), energies in joules, ``wall_clock_s`` in host
seconds over the whole ``serve`` call — the two clocks are independent
by design, so host-side caching never changes simulated physics.  Paper
anchors: the 1000 FPS frame-rate claim (Section IV) sets the default
offered rate; the fleet transport budget reuses Fig. 2's thing-centric
payload accounting.

Layering: this module is the thin facade.  Simulated-time admission and
placement live in :mod:`repro.engine.scheduler`, service levels in
:mod:`repro.engine.admission`, scenario generation in
:mod:`repro.engine.workloads`; the facade owns model registration, node
construction, warmup and the micro-batched host compute.  The default
configuration — ``policy="greedy"``, no SLO classes,
``fault_profile=None`` — is **bit-identical** to the pre-split engine
(pinned by ``tests/test_engine_scheduler.py``).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import OISAConfig
from repro.core.controller import FrameTiming, TimingController
from repro.core.energy import OISAEnergyModel
from repro.core.mapping import (
    ConvWorkload,
    MlpWorkload,
    plan_convolution,
    plan_mlp,
)
from repro.core.opc import OpticalProcessingCore
from repro.core.pipeline import HardwareFirstLayerPipeline
from repro.engine.admission import (
    AdmissionController,
    SloClass,
    SloReport,
    build_slo_report,
)
from repro.engine.cache import WeightProgramCache
from repro.engine.chaos import ChaosPlan, ChaosTimeline
from repro.engine.failover import (
    BrownoutConfig,
    BrownoutController,
    BrownoutReport,
    FailoverCoordinator,
    ResilienceReport,
    RetryPolicy,
    SparePool,
)
from repro.engine.health import FaultProfile, HealthMonitor, HealthReport
from repro.engine.scheduler import (
    FrameScheduler,
    SchedulingPolicy,
    scheduling_policy,
)
from repro.engine.store import ProgramStore
from repro.nn.layers import Sequential
from repro.nn.quant import QuantDense, UniformWeightQuantizer
from repro.sim.fleet import FleetModel, RadioModel
from repro.sim.stream import StreamEvent, StreamReport
from repro.util.parallel import ParallelConfig, parallel_map
from repro.util.rng import spawn_seeds
from repro.util.validation import check_positive


def _warmup_program_task(
    task: tuple[OISAConfig, int | None, bool, bool, bool, np.ndarray, float],
):
    """Program one (model, die) pair in a worker process.

    Pure and picklable per the :mod:`repro.util.parallel` contract: the
    task description carries everything that shapes the mapping — the
    architecture config, the die seed, the noise/calibration flags and
    the quantized kernel set — and the worker rebuilds an identically
    configured :class:`~repro.core.opc.OpticalProcessingCore` from it.
    Programming is deterministic per (config, die, kernel set)
    (:mod:`repro.core.reference` contract), so the returned
    :class:`~repro.core.opc.ProgrammedWeights` is bit-identical to what
    the main-process core would have computed.
    """
    (
        config,
        die_seed,
        enable_crosstalk,
        enable_read_noise,
        calibrated,
        quantized,
        scale,
    ) = task
    opc = OpticalProcessingCore(
        config,
        seed=die_seed,
        enable_crosstalk=enable_crosstalk,
        enable_read_noise=enable_read_noise,
    )
    if calibrated:
        from repro.core.calibration import CalibratedAwcMapper

        opc.awc = CalibratedAwcMapper(opc.awc)
    return opc.program(quantized, scale)


@dataclass(frozen=True)
class FrameRequest:
    """One frame offered to the server."""

    frame: np.ndarray
    model_key: str
    #: Arrival timestamp [s]; ``None`` means "derive from the offered rate".
    arrival_s: float | None = None
    #: Tenant the frame bills to (weighted-fair-queuing identity); ``None``
    #: means "the model key is the tenant".
    tenant: str | None = None


@dataclass(frozen=True)
class FrameResponse:
    """The fate (and output) of one request."""

    index: int
    model_key: str
    node_id: int
    output: np.ndarray | None
    event: StreamEvent
    #: Whether the frame computed on a degraded (upset) die — only ever
    #: True when the server runs under a :class:`FaultProfile`.
    degraded: bool = False
    #: Model key actually dispatched when it differs from the request
    #: (brownout reduced-bits variants); ``None`` = served as requested.
    served_model: str | None = None

    @property
    def dropped(self) -> bool:
        """Whether admission control rejected the frame."""
        return self.event.dropped


@dataclass
class ServeReport:
    """Everything one :meth:`FrameServer.serve` call produced."""

    #: Simulated-time stream statistics (drops, latency, energy) in the
    #: same shape :mod:`repro.sim.stream` reports.
    stream: StreamReport
    responses: list[FrameResponse] = field(default_factory=list)
    #: Host wall-clock of the whole :meth:`FrameServer.serve` call, from
    #: entry to return: validation, scheduling, compute (when on) and
    #: report assembly.
    wall_clock_s: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Delivered frames per node id.
    node_frames: dict[int, int] = field(default_factory=dict)
    #: First-layer feature payload shipped off-node (fleet radio model).
    payload_bytes: int = 0
    radio_energy_j: float = 0.0
    #: Degraded/recovered statistics when serving under a
    #: :class:`~repro.engine.health.FaultProfile` (``None`` otherwise).
    health: HealthReport | None = None
    #: Per-class SLO accounting (``None`` on the default best-effort path).
    slo: SloReport | None = None
    #: Retry/spare outcomes when a failover layer is configured
    #: (``None`` otherwise).
    resilience: ResilienceReport | None = None
    #: Brownout tier history when a brownout controller is configured
    #: (``None`` otherwise).
    brownout: BrownoutReport | None = None
    #: Control-plane accounting (routing table, scaling-decision audit
    #: trail, node-seconds) when the report came through a
    #: :class:`~repro.engine.controlplane.ControlPlane` (``None`` on the
    #: plain single-fleet path).  Typed loosely to keep the facade free
    #: of an engine-internal import cycle.
    controlplane: object | None = None

    @property
    def delivered(self) -> int:
        """Frames that produced features."""
        return self.stream.frames - self.stream.dropped

    @property
    def wall_clock_fps(self) -> float:
        """Host throughput: delivered frames per wall-clock second."""
        if self.wall_clock_s <= 0.0:
            return 0.0
        return self.delivered / self.wall_clock_s


class _ModelEntry:
    """Per-model precomputation: pipeline template + timing + energy."""

    def __init__(
        self,
        key: str,
        model: Sequential,
        config: OISAConfig,
        fleet: FleetModel,
    ) -> None:
        self.key = key
        self.model = model
        #: The layer that runs on-die (``None`` for a float model, which
        #: pipeline construction rejects with its own message).
        self._stem = HardwareFirstLayerPipeline._find_first_quant_layer(model)
        self._config = config
        self._fleet = fleet
        #: Per-die timing/energy tables, keyed by (die seed, frame shape):
        #: the tuning budget is die-specific (each die's AWC mismatch
        #: realizes the kernels differently) and the plan is
        #: geometry-specific, so a warmup() shape must never answer for a
        #: stream serving different frames.
        self._timed: dict[
            tuple[int | None, tuple[int, ...]],
            tuple[FrameTiming, FrameTiming, float, float],
        ] = {}
        #: (payload bytes, radio energy [J]) per delivered frame;
        #: die-independent.
        self._transport: tuple[int, float] = (0, 0.0)

    @property
    def transport(self) -> tuple[int, float]:
        """(payload bytes, radio energy [J]) per delivered frame."""
        return self._transport

    def check_frame_shape(self, frame_shape: tuple[int, ...]) -> None:
        """Raise ``ValueError`` unless ``frame_shape`` fits the on-die layer.

        A dense stem takes any frame whose flattened length equals its
        input features; a conv stem takes ``(C, H, W)`` frames with its
        input channel count.
        """
        stem = self._stem
        if stem is None:
            return
        expected = stem.weight.data.shape[1]
        if isinstance(stem, QuantDense):
            if math.prod(frame_shape) != expected:
                raise ValueError(
                    f"model {self.key!r} expects frames of {expected} "
                    f"features, got shape {tuple(frame_shape)}"
                )
            return
        if len(frame_shape) != 3:
            raise ValueError(
                f"model {self.key!r} expects (C, H, W) frames, got shape "
                f"{tuple(frame_shape)}"
            )
        if frame_shape[0] != expected:
            raise ValueError(
                f"model {self.key!r} expects {expected}-channel frames, "
                f"got {frame_shape[0]}"
            )

    def _workload(self, pipeline: HardwareFirstLayerPipeline, frame_shape):
        if pipeline.is_dense:
            return MlpWorkload(
                input_features=int(np.prod(frame_shape)),
                output_features=pipeline.conv.weight.data.shape[0],
            )
        channels, rows, cols = frame_shape
        return ConvWorkload(
            kernel_size=pipeline.conv.kernel_size,
            num_kernels=pipeline.conv.weight.data.shape[0],
            in_channels=channels,
            image_height=rows,
            image_width=cols,
            stride=pipeline.conv.stride,
            padding=pipeline.conv.padding,
        )

    def timing_for(
        self, pipeline: HardwareFirstLayerPipeline, frame_shape: tuple[int, ...]
    ) -> tuple[FrameTiming, FrameTiming, float, float]:
        """(steady, remap) timings + energies for this model on this die.

        Computed once per (die, frame geometry) — normally from the first
        admitted frame's shape, or ahead of time by
        :meth:`FrameServer.warmup`.
        """
        die = pipeline.opc.seed
        key = (die, tuple(frame_shape))
        cached = self._timed.get(key)
        if cached is not None:
            return cached
        config = self._config.with_weight_bits(pipeline.conv.quantizer.bits)
        model = OISAEnergyModel(config)
        controller = TimingController(config)
        tuning_latency = pipeline.opc.programmed.tuning.latency_s
        mapping_energy = pipeline.opc.programmed.tuning.energy_j
        workload = self._workload(pipeline, frame_shape)
        if pipeline.is_dense:
            plan = plan_mlp(config, workload)
            compute_s = model.mlp_compute_time_s(plan)
            outputs = workload.output_features
            transmit_s = (
                outputs * TimingController.OUTPUT_BITS_PER_VALUE
            ) / TimingController.TRANSMIT_RATE_BPS
            exposure = controller.exposure_time_s()
            steady = FrameTiming(exposure, 0.0, compute_s, transmit_s)
            remap = FrameTiming(
                exposure,
                controller.mapping_time_s(tuning_latency),
                compute_s,
                transmit_s,
            )
            steady_energy = model.mlp_frame_energy_j(plan).total
            remap_energy = model.mlp_frame_energy_j(
                plan, include_mapping=True, mapping_energy_j=mapping_energy
            ).total
            payload = math.ceil(outputs * FleetModel.FEATURE_BITS / 8)
            radio = self._fleet.radio.transmit_energy_j(payload)
        else:
            plan = plan_convolution(config, workload)
            steady = controller.frame_timing(plan)
            remap = controller.frame_timing(
                plan, remap_weights=True, tuning_latency_s=tuning_latency
            )
            steady_energy = model.frame_energy_j(plan).total
            remap_energy = model.frame_energy_j(
                plan, include_mapping=True, mapping_energy_j=mapping_energy
            ).total
            node_report = self._fleet.oisa_node(workload)
            payload = node_report.payload_bytes
            radio = node_report.radio_energy_j
        self._transport = (payload, radio)
        self._timed[key] = (steady, remap, steady_energy, remap_energy)
        return self._timed[key]


class _Node:
    """One simulated OISA die hosting the multiplexed pipelines."""

    def __init__(
        self,
        node_id: int,
        config: OISAConfig,
        seed: int,
        cache: WeightProgramCache,
        enable_noise: bool,
    ) -> None:
        self.node_id = node_id
        self.opc = OpticalProcessingCore(
            config,
            seed=seed,
            enable_crosstalk=enable_noise,
            enable_read_noise=enable_noise,
        )
        self.cache = cache
        self.pipelines: dict[str, HardwareFirstLayerPipeline] = {}
        #: Kernel set resident in *simulated* time (drives remap events).
        self.active_model: str | None = None
        #: Kernel set currently programmed on the host-side OPC object.
        self.programmed_model: str | None = None
        self.free_at = 0.0
        self.frames = 0

    def pipeline_for(self, entry: _ModelEntry) -> HardwareFirstLayerPipeline:
        """The (lazily built) pipeline binding ``entry`` to this die."""
        pipeline = self.pipelines.get(entry.key)
        if pipeline is None:
            pipeline = HardwareFirstLayerPipeline(
                entry.model, self.opc, program_cache=self.cache
            )
            self.pipelines[entry.key] = pipeline
            self.programmed_model = entry.key  # construction programs the OPC
        return pipeline

    def activate(self, entry: _ModelEntry) -> HardwareFirstLayerPipeline:
        """Make ``entry`` the programmed model (cache-backed kernel swap)."""
        pipeline = self.pipeline_for(entry)
        if self.programmed_model != entry.key:
            pipeline.activate()
            self.programmed_model = entry.key
        return pipeline


class FrameServer:
    """Micro-batched, cache-backed frame serving across N simulated nodes.

    Parameters
    ----------
    config:
        Architecture configuration shared by every node.
    num_nodes:
        Simulated dies serving the stream (distinct AWC mismatch seeds).
    micro_batch:
        Frames per forward call; the sweet spot for the NumPy substrate
        sits around 8-32 (larger batches thrash the im2col working set).
    cache:
        Weight-program cache; defaults to a fresh unbounded cache.
    seed:
        Base seed; node die seeds are spawned deterministically from it.
    enable_noise:
        Crosstalk + BPD read noise on each node's optics.
    radio:
        Edge-radio model for the feature payload accounting.
    fault_profile:
        Degradation scenario to serve under — a
        :class:`~repro.engine.health.FaultProfile`, a named profile string
        (``"none"``, ``"drift"``, ``"transient"``, ``"harsh"``), or
        ``None``/``"none"`` for the healthy-die fast path (bit-identical
        to a server built without the argument).
    policy:
        Scheduling policy — ``"greedy"`` (default, the historical
        drop-if-busy behaviour), ``"edf"``, ``"slo"`` or a
        :class:`~repro.engine.scheduler.SchedulingPolicy` instance.
    slo_classes:
        ``{model_key: SloClass}`` service levels (or a prebuilt
        :class:`~repro.engine.admission.AdmissionController`); ``None``
        serves everything best-effort.
    compute_mode:
        ``"batched"`` (default) — the vectorized warm path: fleet-wide
        frame staging plus whole-run batched forwards;
        ``"reference"`` — the retained per-chunk loop.  The two produce
        bit-identical reports on every healthy-die stream; serving under
        a fault profile always uses the reference loop.
    chaos_plan:
        Injected fleet-failure schedule — a
        :class:`~repro.engine.chaos.ChaosPlan`, a named plan string
        (``"none"``, ``"node-loss"``, ``"region-outage"``,
        ``"correlated-upsets"``, ``"cache-storm"``, ``"latency-spike"``,
        ``"rolling"``), or ``None``/``"none"`` for no injection
        (byte-identical to a server built without the argument).
    retry_policy:
        Deadline-aware re-dispatch of frames killed in flight — a
        :class:`~repro.engine.failover.RetryPolicy`, a named policy
        string (``"none"``, ``"deadline"``, ``"aggressive"``), or
        ``None``/``"none"`` to abandon killed frames.
    spares:
        Warm-standby budget: a spare count or a
        :class:`~repro.engine.failover.SparePool`; ``0`` disables
        failover spares.
    brownout:
        Degradation-tier admission — a
        :class:`~repro.engine.failover.BrownoutConfig`, a named config
        string (``"none"``, ``"standard"``), or ``None``/``"none"`` to
        keep admission tier-free.
    program_store:
        On-disk program artifacts — a
        :class:`~repro.engine.store.ProgramStore` or a directory path —
        attached to the cache as a read-through/write-behind tier:
        warmup and kernel swaps restore integrity-checked npz records
        instead of reprogramming, so a second run against the same
        store programs nothing.  ``None`` keeps the cache memory-only.
    """

    COMPUTE_MODES = ("batched", "reference")

    def __init__(
        self,
        config: OISAConfig | None = None,
        num_nodes: int = 1,
        micro_batch: int = 16,
        cache: WeightProgramCache | None = None,
        seed: int | None = 0,
        enable_noise: bool = True,
        radio: RadioModel | None = None,
        fault_profile: FaultProfile | str | None = None,
        policy: str | SchedulingPolicy = "greedy",
        slo_classes: dict[str, SloClass] | AdmissionController | None = None,
        compute_mode: str = "batched",
        chaos_plan: ChaosPlan | str | None = None,
        retry_policy: RetryPolicy | str | None = None,
        spares: int | SparePool = 0,
        brownout: BrownoutConfig | str | None = None,
        program_store: ProgramStore | str | None = None,
    ) -> None:
        check_positive("num_nodes", num_nodes)
        check_positive("micro_batch", micro_batch)
        if compute_mode not in self.COMPUTE_MODES:
            raise ValueError(
                f"compute_mode must be one of {self.COMPUTE_MODES}, got "
                f"{compute_mode!r}"
            )
        self.config = config or OISAConfig()
        self.micro_batch = micro_batch
        self.compute_mode = compute_mode
        if isinstance(program_store, (str, os.PathLike)):
            program_store = ProgramStore(program_store)
        self.cache = cache if cache is not None else WeightProgramCache()
        if program_store is not None:
            # Read-through/write-behind on-disk tier: a second run against
            # the same store directory programs nothing (engine/store.py).
            self.cache.attach_store(program_store)
        self.fleet = FleetModel(self.config, radio=radio)
        self._seed = seed
        self.policy = scheduling_policy(policy)
        #: Whether the caller pinned the service levels at construction —
        #: scenario-carried classes then never override them.
        self._explicit_slo = slo_classes is not None
        if isinstance(slo_classes, AdmissionController):
            self.admission = slo_classes
        else:
            self.admission = AdmissionController(slo_classes)
        if isinstance(fault_profile, str):
            fault_profile = FaultProfile.named(fault_profile)
        if fault_profile is not None and not fault_profile.active:
            fault_profile = None
        self.fault_profile = fault_profile
        if isinstance(chaos_plan, str):
            chaos_plan = ChaosPlan.named(chaos_plan)
        self.chaos_plan = chaos_plan
        if isinstance(retry_policy, str):
            retry_policy = RetryPolicy.named(retry_policy)
        self.retry_policy = retry_policy
        if isinstance(spares, SparePool):
            self.spare_pool = spares if spares.count > 0 else None
        else:
            self.spare_pool = SparePool(count=int(spares)) if spares else None
        if isinstance(brownout, str):
            brownout = BrownoutConfig.named(brownout)
        self.brownout_config = brownout
        self._enable_noise = enable_noise
        seeds = spawn_seeds(seed, num_nodes)
        self.nodes = [
            _Node(index, self.config, seeds[index], self.cache, enable_noise)
            for index in range(num_nodes)
        ]
        if fault_profile is not None and fault_profile.calibrated:
            from repro.core.calibration import CalibratedAwcMapper

            for node in self.nodes:
                node.opc.awc = CalibratedAwcMapper(node.opc.awc)
        self._models: dict[str, _ModelEntry] = {}

    # ------------------------------------------------------------------
    # Model management
    # ------------------------------------------------------------------
    def register_model(self, key: str, model: Sequential) -> None:
        """Register a QAT model under ``key`` (its first layer serves on-die)."""
        if key in self._models:
            raise ValueError(f"model key {key!r} is already registered")
        self._models[key] = _ModelEntry(key, model, self.config, self.fleet)

    def adopt_models(
        self, models: dict[str, Sequential], origin: str = "caller"
    ) -> None:
        """Register models idempotently, rejecting silent weight conflicts.

        New keys register normally; a key this server already knows is
        accepted only when *every* parameter matches the registered model
        — the off-chip head serves too, so first-layer equality alone
        would let a different network hide behind a known kernel set.
        ``origin`` names the source (a scenario, a control-plane shard
        assignment) in the error message.
        """
        for key, model in models.items():
            if key not in self._models:
                self.register_model(key, model)
                continue
            registered = self._models[key].model.parameters()
            incoming = model.parameters()
            if len(registered) != len(incoming) or any(
                not np.array_equal(ours.data, theirs.data)
                for ours, theirs in zip(registered, incoming)
            ):
                raise ValueError(
                    f"{origin} redefines model key {key!r} with different "
                    "weights than the model already registered on this "
                    "server; serve it on a fresh server (or use distinct "
                    "keys)"
                )

    def pin_model_programs(self, model_key: str, pinned: bool = True) -> int:
        """(Un)pin one model's programs on every die, in the shared cache.

        The control plane pins the programs of recently routed
        (tenant, model) pairs so the priority-evicting
        :class:`~repro.engine.cache.WeightProgramCache` sheds cold
        programs first under byte pressure (see
        :meth:`~repro.engine.cache.WeightProgramCache.set_priority`;
        pins are sticky and apply even before the program is computed).
        Touches only eviction priorities — never stats, LRU order or
        residency — so pinning is invisible to every serving counter.
        Returns the number of (die, program) keys touched.
        """
        entry = self._models.get(model_key)
        if entry is None:
            raise ValueError(f"unknown model key {model_key!r}")
        first = HardwareFirstLayerPipeline._find_first_quant_layer(entry.model)
        if first is None:
            return 0
        quantized = first.quantizer.quantize(first.weight.data)
        scale = first.quantizer.scale(first.weight.data)
        touched = 0
        for node in self.nodes:
            key = self.cache.key_for(node.opc, quantized, scale)
            self.cache.set_priority(key, 1 if pinned else 0)
            touched += 1
        return touched

    @property
    def model_keys(self) -> tuple[str, ...]:
        """Registered model keys (internal ``@brownout`` variants hidden)."""
        return tuple(key for key in self._models if "@brownout" not in key)

    def warmup(
        self,
        model_keys: list[str] | tuple[str, ...] | None = None,
        frame_shape: tuple[int, ...] | None = None,
        parallel: ParallelConfig | None = None,
    ) -> dict[str, float]:
        """Pre-program known kernel sets so mid-stream swaps never stall.

        Runs the (vectorized, now-cheap) cold program path for every
        ``(model, node)`` pair up front: pipelines are built, each die's
        :class:`~repro.core.opc.ProgrammedWeights` lands in the program
        cache, and — when ``frame_shape`` is given — the per-die
        timing/energy tables are traced too.  After a warmup, every kernel
        swap during :meth:`serve` is a cache hit and the first frame of a
        new model pays no host-side mapping cost.

        With a non-serial ``parallel`` config the (model, die) programs
        are computed concurrently — each pair is an independent pure task
        (:func:`_warmup_program_task`) — and the returned records are
        installed into the shared :class:`~repro.engine.cache.
        WeightProgramCache` on the main process, **in task order**, before
        the usual in-process activation pass runs.  The post-warmup server
        state (cache contents, programmed dies, every subsequent
        :class:`ServeReport`) is bit-identical to a serial warmup; only
        this method's own hit/miss summary differs in shape (each pair
        counts one preload miss *and* one activation hit, where the serial
        pass counts a single miss), because the counters honestly narrate
        where the programming happened.

        Parameters
        ----------
        model_keys:
            Kernel sets to warm; defaults to every registered model.
        frame_shape:
            Optional ``(C, H, W)`` (conv) or flat-feature shape (dense) of
            the frames the stream will carry; warms the timing tables as
            well.
        parallel:
            Executor selection (:class:`~repro.util.parallel.
            ParallelConfig`); ``None`` or a serial/one-worker config keeps
            the historical sequential pass.

        Returns
        -------
        dict
            ``{"models", "nodes", "cache_hits", "cache_misses",
            "wall_clock_s"}`` for the warmup pass.
        """
        keys = list(model_keys) if model_keys is not None else list(self._models)
        for key in keys:
            if key not in self._models:
                raise ValueError(f"unknown model key {key!r}")
            if frame_shape is not None:
                self._models[key].check_frame_shape(tuple(frame_shape))
        hits0, misses0 = self.cache.stats.hits, self.cache.stats.misses
        started = time.perf_counter()
        if parallel is not None and not parallel.is_serial:
            self._preprogram_parallel(keys, parallel)
        for key in keys:
            entry = self._models[key]
            for node in self.nodes:
                pipeline = node.activate(entry)
                if frame_shape is not None:
                    entry.timing_for(pipeline, tuple(frame_shape))
        return {
            "models": len(keys),
            "nodes": len(self.nodes),
            "cache_hits": self.cache.stats.hits - hits0,
            "cache_misses": self.cache.stats.misses - misses0,
            "wall_clock_s": time.perf_counter() - started,
        }

    def _preprogram_parallel(
        self, keys: list[str], parallel: ParallelConfig
    ) -> None:
        """Fan the cold (model, die) programming out over workers.

        Walks the same ``keys x nodes`` order as the serial pass, skips
        pairs whose program is already resident — or restorable from the
        cache's on-disk :class:`~repro.engine.store.ProgramStore`
        (loading an npz beats reprogramming by orders of magnitude, so
        warm-store pairs never become worker tasks) — ships the rest as
        pure task descriptions to :func:`_warmup_program_task`, and
        preloads the returned programs into the shared cache in task
        order (:meth:`~repro.engine.cache.WeightProgramCache.preload`).
        The subsequent in-process activation pass then only performs
        O(1) installs.
        """
        pending: list[tuple] = []
        targets: list[tuple[_Node, np.ndarray, float]] = []
        for key in keys:
            entry = self._models[key]
            first = HardwareFirstLayerPipeline._find_first_quant_layer(
                entry.model
            )
            if first is None:
                continue  # activate() will raise the precise error
            quantized = first.quantizer.quantize(first.weight.data)
            scale = first.quantizer.scale(first.weight.data)
            for node in self.nodes:
                if self.cache.restore_from_store(node.opc, quantized, scale):
                    continue
                calibrated = (
                    getattr(node.opc.awc, "calibration_token", None)
                    is not None
                )
                pending.append(
                    (
                        node.opc.config,
                        node.opc.seed,
                        node.opc.enable_crosstalk,
                        node.opc.enable_read_noise,
                        calibrated,
                        quantized,
                        scale,
                    )
                )
                targets.append((node, quantized, scale))
        programs = parallel_map(_warmup_program_task, pending, parallel)
        for (node, quantized, scale), programmed in zip(targets, programs):
            self.cache.preload(node.opc, quantized, scale, programmed)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(
        self,
        requests: list[FrameRequest],
        offered_fps: float | None = None,
        node_limit: int | None = None,
        compute: bool = True,
    ) -> ServeReport:
        """Admit, schedule and compute a stream of requests.

        Requests without explicit ``arrival_s`` arrive uniformly at
        ``offered_fps`` (default: the configured frame rate).  Admission
        and placement run in simulated time inside
        :class:`~repro.engine.scheduler.FrameScheduler` under this
        server's policy and SLO classes (the greedy default keeps the
        drop-if-busy rule of :class:`~repro.sim.stream.StreamSimulator`);
        the admitted frames then compute in micro-batches, grouped into
        consecutive same-model runs per node.

        Every request is validated before anything is scheduled: an
        unknown model key, a non-finite or negative ``arrival_s``, or a
        frame shape the model's on-die layer cannot take raises
        ``ValueError`` naming the request index, with node state and
        cache counters untouched.

        ``compute=False`` serves schedule-only: arrival resolution,
        admission, scheduling, the health/chaos/failover layers and
        report assembly run exactly as above and only the host-side
        logits are skipped.  Every response then carries
        ``output=None``, no read-noise is drawn, and the cache counters
        cover only pipeline construction.  On a freshly built server the
        report equals a full serve's in every field except the outputs,
        the cache counters and ``wall_clock_s``, and only there: under a
        fault profile or chaos plan the health monitor reads host-side
        kernel residency, which a skipped compute leaves where
        scheduling put it, so a later serve on the same server can
        diverge.  Capacity search and the resilience ladder read only
        the simulated-time outcome and build a fresh server per serve;
        the CLI, the control plane and the benches read outputs.

        ``node_limit`` restricts this call to the first ``node_limit``
        nodes — the control plane's autoscaling hook.  Because
        :func:`~repro.util.rng.spawn_seeds` is prefix-stable, the first
        *k* nodes of an N-node server are byte-identical (same die
        seeds, same construction order) to a k-node server's fleet, so a
        limited serve reproduces the smaller fleet's stream exactly
        while the nodes above the limit stay warm (their cached programs
        make the next scale-up free).  ``None`` (the default) serves on
        every node — byte-identical to a server without the parameter.
        """
        started = time.perf_counter()
        rate = offered_fps if offered_fps is not None else self.config.frame_rate_hz
        check_positive("offered_fps", rate)
        interval = 1.0 / rate
        if node_limit is not None:
            if not 1 <= node_limit <= len(self.nodes):
                raise ValueError(
                    f"node_limit must be in [1, {len(self.nodes)}], got "
                    f"{node_limit}"
                )
            if (
                self.fault_profile is not None
                or self.chaos_plan is not None
                or self.retry_policy is not None
                or self.spare_pool is not None
                or self.brownout_config is not None
            ):
                # The health/chaos/failover layers walk ``self.nodes``
                # directly (spares append to it, monitors trip dies by
                # id); slicing under them would silently skew every
                # outage statistic.  The control plane builds plain
                # shard servers, so the combination has no user.
                raise ValueError(
                    "node_limit does not compose with fault/chaos/"
                    "failover layers; configure the shard server plain"
                )
        # One shape check per distinct (model key, frame shape) pair keeps
        # the pass at a set lookup per request.
        checked: set[tuple[str, tuple[int, ...]]] = set()
        for index, request in enumerate(requests):
            arrival = request.arrival_s
            if arrival is not None and not 0.0 <= arrival < math.inf:
                raise ValueError(
                    f"request {index}: arrival_s must be finite and "
                    f"non-negative, got {arrival!r}"
                )
            pair = (request.model_key, request.frame.shape)
            if pair in checked:
                continue
            entry = self._models.get(request.model_key)
            if entry is None:
                raise ValueError(
                    f"request {index}: unknown model key {request.model_key!r}"
                )
            try:
                entry.check_frame_shape(pair[1])
            except ValueError as error:
                raise ValueError(f"request {index}: {error}") from None
            checked.add(pair)

        # Each serve() call simulates one stream starting at t = 0; kernel
        # residency (active/programmed models, cache) carries over, busy
        # state does not.
        for node in self.nodes:
            node.free_at = 0.0
            node.frames = 0

        # Health monitoring covers one serve() call (the stream restarts at
        # t = 0); cache invalidations it performs persist via the shared
        # program cache.  With no profile and no chaos plan, monitor is
        # None and scheduling is bit-identical to the healthy-die server.
        # A chaos plan without a fault profile rides on a neutral carrier
        # profile (no organic drift/upsets — only injected events fire).
        base_nodes = len(self.nodes)
        timeline = (
            ChaosTimeline(self.chaos_plan, base_nodes, self._seed)
            if self.chaos_plan is not None
            else None
        )
        profile = self.fault_profile
        if profile is None and timeline is not None:
            profile = FaultProfile(name=f"chaos:{timeline.plan.name}")
        monitor = (
            HealthMonitor(
                profile,
                self.config,
                self.nodes,
                self.cache,
                self._seed,
                chaos=timeline,
            )
            if profile is not None
            else None
        )
        failover = self._build_failover()

        hits0, misses0 = self.cache.stats.hits, self.cache.stats.misses

        # Arrival resolution stays here (the rate default is server
        # policy); the simulated-time walk is the scheduler's.
        arrivals = [
            request.arrival_s if request.arrival_s is not None else index * interval
            for index, request in enumerate(requests)
        ]
        active = self.nodes if node_limit is None else self.nodes[:node_limit]
        scheduler = FrameScheduler(
            active,
            self._models,
            self.policy,
            admission=self.admission,
            monitor=monitor,
            failover=failover,
        )
        result = scheduler.run(requests, arrivals)

        outputs = (
            self._compute(requests, result.schedule, monitor) if compute else {}
        )

        report = ServeReport(stream=result.stream)
        report.cache_hits = self.cache.stats.hits - hits0
        report.cache_misses = self.cache.stats.misses - misses0
        if monitor is not None:
            report.health = monitor.report
        if failover is not None:
            report.resilience = failover.report
            if failover.brownout is not None:
                report.brownout = failover.brownout.report
        for index, request in enumerate(requests):
            node_id, event, tag = result.placements[index]
            output = outputs.get(index)
            served = result.served.get(index)
            report.responses.append(
                FrameResponse(
                    index,
                    request.model_key,
                    node_id,
                    output,
                    event,
                    degraded=tag > 0,
                    served_model=served,
                )
            )
            if not event.dropped:
                # Transport bills the key actually dispatched — a brownout
                # reduced-bits variant ships its own (identically shaped)
                # feature payload.
                payload, radio_j = self._models[
                    served or request.model_key
                ].transport
                report.payload_bytes += payload
                report.radio_energy_j += radio_j
        report.node_frames = {node.node_id: node.frames for node in active}
        # SLO accounting only exists when there is something to account
        # for — classes or a queueing policy; the default path stays bare.
        if self.admission.has_classes or self.policy.queueing:
            report.slo = build_slo_report(
                self.policy.name,
                report.responses,
                self.admission,
                result.shed,
                result.expired,
                lost=result.lost,
            )
        # Warm spares only live for the serve call that activated them:
        # the fleet returns to its configured size (their cache entries —
        # shared with the nodes they covered — persist).
        if len(self.nodes) > base_nodes:
            del self.nodes[base_nodes:]
        report.wall_clock_s = time.perf_counter() - started
        return report

    def serve_frames(
        self,
        frames: np.ndarray,
        model_key: str,
        offered_fps: float | None = None,
    ) -> ServeReport:
        """Convenience wrapper: one homogeneous (N, C, H, W) frame stack."""
        requests = [FrameRequest(frame, model_key) for frame in np.asarray(frames)]
        return self.serve(requests, offered_fps=offered_fps)

    def serve_scenario(
        self,
        scenario,
        offered_fps: float | None = None,
        compute: bool = True,
    ) -> ServeReport:
        """Serve a :class:`~repro.engine.workloads.Scenario` end-to-end.

        Registers any of the scenario's models this server hasn't seen,
        adopts its SLO classes (unless this server was built with explicit
        ``slo_classes`` — construction pins them), and serves its request
        list at ``offered_fps`` (default: the scenario's suggested rate,
        else the configured frame rate).  Adoption is per call: a later
        scenario's classes replace an earlier one's, and a class-less
        scenario serves best-effort again.  ``compute=False`` serves
        schedule-only, as in :meth:`serve`.

        Raises ``ValueError`` when the scenario reuses an already
        registered model key for a *different* kernel set (e.g. the same
        scenario name rebuilt at another seed) — serving scenario B's
        frames through scenario A's weights would silently corrupt every
        statistic.
        """
        self.adopt_models(scenario.models, origin=f"scenario {scenario.name!r}")
        if not self._explicit_slo:
            self.admission = AdmissionController(scenario.slo_classes)
        rate = offered_fps if offered_fps is not None else scenario.offered_fps
        return self.serve(scenario.requests, offered_fps=rate, compute=compute)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _build_failover(self) -> FailoverCoordinator | None:
        """A fresh coordinator per serve call, or ``None`` when the whole
        failover layer is disabled (the byte-identical default path)."""
        if (
            self.retry_policy is None
            and self.spare_pool is None
            and self.brownout_config is None
        ):
            return None
        brownout = reduced = None
        if self.brownout_config is not None:
            brownout = BrownoutController(self.brownout_config)
            reduced = self._ensure_reduced_variants(
                self.brownout_config.reduced_bits
            )
        return FailoverCoordinator(
            retry=self.retry_policy,
            spares=self.spare_pool,
            brownout=brownout,
            seed=self._seed,
            spare_factory=self._activate_spare,
            reduced_key=reduced,
        )

    def _activate_spare(self, covering: _Node, ready_s: float) -> _Node:
        """Attach a warm spare adopting ``covering``'s die seed.

        Same die seed → same cache keys: every program the primary warmed
        is a cache hit on the spare and the installed records are
        bit-identical to the primary's.  The spare joins busy until
        ``ready_s`` (the pool's bring-up latency).
        """
        spare = _Node(
            len(self.nodes),
            self.config,
            covering.opc.seed,
            self.cache,
            self._enable_noise,
        )
        if self.fault_profile is not None and self.fault_profile.calibrated:
            from repro.core.calibration import CalibratedAwcMapper

            spare.opc.awc = CalibratedAwcMapper(spare.opc.awc)
        spare.free_at = ready_s
        self.nodes.append(spare)
        return spare

    def _ensure_reduced_variants(self, bits: int) -> dict[str, str]:
        """Register reduced-precision variants for the brownout tier.

        Each registered model whose first quant layer exceeds ``bits``
        gets a deep-copied twin quantized to ``bits``, registered under
        ``"<key>@brownout<bits>b"`` (hidden from :attr:`model_keys`).
        Variants are real models — their timing/energy/accuracy books are
        the honest reduced-bit numbers, not a discount factor.
        """
        import copy

        mapping: dict[str, str] = {}
        for key in list(self._models):
            if "@brownout" in key:
                continue
            entry = self._models[key]
            first = HardwareFirstLayerPipeline._find_first_quant_layer(
                entry.model
            )
            if first is None or first.quantizer.bits <= bits:
                continue
            variant_key = f"{key}@brownout{bits}b"
            if variant_key not in self._models:
                model = copy.deepcopy(entry.model)
                variant_first = (
                    HardwareFirstLayerPipeline._find_first_quant_layer(model)
                )
                variant_first.quantizer = UniformWeightQuantizer(bits)
                self._models[variant_key] = _ModelEntry(
                    variant_key, model, self.config, self.fleet
                )
            mapping[key] = variant_key
        return mapping

    def _compute(
        self,
        requests: list[FrameRequest],
        schedule: list[tuple[int, int, str, int]],
        monitor=None,
    ) -> dict[int, np.ndarray]:
        """Run the admitted frames in per-(node, model) runs.

        Dispatches to the vectorized batched path (the default) or the
        retained per-chunk reference loop.  The two are **bit-identical**
        on every healthy-die stream — same floats, same RNG stream, same
        cache counters (``tests/test_engine_batched.py``).  Serving under
        a :class:`~repro.engine.health.HealthMonitor` always takes the
        reference loop: degraded runs route through stateful
        :class:`~repro.sim.faults.FaultyOpticalCore` wrappers whose draw
        order the per-chunk loop defines.
        """
        if monitor is not None or self.compute_mode == "reference":
            return self._compute_reference(requests, schedule, monitor)
        return self._compute_batched(requests, schedule)

    def _compute_reference(
        self,
        requests: list[FrameRequest],
        schedule: list[tuple[int, int, str, int]],
        monitor=None,
    ) -> dict[int, np.ndarray]:
        """The original per-chunk warm-path loop, retained verbatim.

        Kept as the bit-identity reference for the batched path (the
        same role :mod:`repro.core.reference` plays for the cold
        weight-programming chain) and as the only compute path under a
        fault profile.  Runs are grouped within each node's own
        subsequence — two nodes interleaving in global arrival order must
        not fragment each other's batches.  Under a fault profile, a run
        additionally breaks at degradation boundaries: frames admitted
        during an upset window compute through that upset's frozen
        :class:`~repro.sim.faults.FaultyOpticalCore`, frames before/after
        it on the healthy programmed core.
        """
        outputs: dict[int, np.ndarray] = {}
        per_node: dict[int, list[tuple[int, str, int]]] = {}
        for idx, node_id, model_key, tag in schedule:
            per_node.setdefault(node_id, []).append((idx, model_key, tag))

        for node_id, entries in per_node.items():
            node = self.nodes[node_id]
            position = 0
            while position < len(entries):
                _, model_key, tag = entries[position]
                run_end = position
                while (
                    run_end < len(entries)
                    and entries[run_end][1:] == (model_key, tag)
                ):
                    run_end += 1
                run = entries[position:run_end]
                position = run_end

                pipeline = node.activate(self._models[model_key])
                core = (
                    monitor.fault_core(node, model_key, tag)
                    if monitor is not None and tag > 0
                    else None
                )
                for chunk_start in range(0, len(run), self.micro_batch):
                    chunk = run[chunk_start : chunk_start + self.micro_batch]
                    batch = np.stack(
                        [
                            np.asarray(requests[idx].frame, dtype=float)
                            for idx, _, _ in chunk
                        ]
                    )
                    if core is not None:
                        logits = pipeline.forward(
                            batch, batch_size=len(chunk), core=core
                        )
                    else:
                        logits = pipeline.forward(batch, batch_size=len(chunk))
                    for offset, (idx, _, _) in enumerate(chunk):
                        outputs[idx] = logits[offset]
        return outputs

    def _compute_batched(
        self,
        requests: list[FrameRequest],
        schedule: list[tuple[int, int, str, int]],
    ) -> dict[int, np.ndarray]:
        """Vectorized warm path: fleet-wide staging + whole-run forwards.

        Bit-identical to :meth:`_compute_reference` by construction:

        * frames are stacked and ternary-encoded **once per (model,
          frame geometry) across every node** — the encode is elementwise
          (row-stable), so slicing the fleet-wide tensor per run yields
          the same bits the per-chunk ``np.stack`` path produced;
        * each run then computes in one
          :meth:`~repro.core.pipeline.HardwareFirstLayerPipeline.
          forward_batched` call, which batches every row-stable op
          (optical conv, pools, batch-norm, activations, read-noise
          draw) over the whole run and keeps the BLAS matrix products at
          the exact ``micro_batch`` partition of the reference loop;
        * nodes and runs are walked in the reference order, with one
          :meth:`_Node.activate` per run, so per-node read-noise RNG
          streams and cache hit/miss counters evolve identically.
        """
        outputs: dict[int, np.ndarray] = {}
        per_node: dict[int, list[tuple[int, str, int]]] = {}
        for idx, node_id, model_key, tag in schedule:
            per_node.setdefault(node_id, []).append((idx, model_key, tag))

        # Fleet-wide input staging: one stack + one ternary encode per
        # (model, frame geometry) covering every admitted frame.
        groups: dict[tuple[str, tuple[int, ...]], list[int]] = {}
        for idx, _, model_key, _ in schedule:
            shape = tuple(np.shape(requests[idx].frame))
            groups.setdefault((model_key, shape), []).append(idx)
        staged: dict[
            tuple[str, tuple[int, ...]], tuple[np.ndarray, dict[int, int]]
        ] = {}
        for (model_key, shape), indices in groups.items():
            stack = np.stack(
                [np.asarray(requests[i].frame, dtype=float) for i in indices]
            )
            encoded = self._models[model_key].model.layers[0].forward(stack)
            staged[(model_key, shape)] = (
                encoded,
                {idx: row for row, idx in enumerate(indices)},
            )

        for node_id, entries in per_node.items():
            node = self.nodes[node_id]
            position = 0
            while position < len(entries):
                _, model_key, tag = entries[position]
                run_end = position
                while (
                    run_end < len(entries)
                    and entries[run_end][1:] == (model_key, tag)
                ):
                    run_end += 1
                indices = [idx for idx, _, _ in entries[position:run_end]]
                position = run_end

                pipeline = node.activate(self._models[model_key])
                shape = tuple(np.shape(requests[indices[0]].frame))
                encoded, row_of = staged[(model_key, shape)]
                ternary = encoded[[row_of[idx] for idx in indices]]
                logits = pipeline.forward_batched(
                    None, batch_size=self.micro_batch, ternary=ternary
                )
                for offset, idx in enumerate(indices):
                    outputs[idx] = logits[offset]
        return outputs
