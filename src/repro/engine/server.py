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

* **micro-batching** — each node's consecutive same-model frames compute
  in one ``forward`` call per ``micro_batch`` chunk, amortising the
  per-call overhead of the whole layer stack;
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
routes frames around recalibrating nodes, and reports
degraded/recovered statistics (:class:`ServeReport.health`).  Health,
chaos and failover plug in behind one
:class:`~repro.engine.scheduler.ServeLayers` seam; with none configured
its plain base class serves bit-identically to the pre-health engine.

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

import dataclasses
import functools
import hashlib
import itertools
import math
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import NamedTuple

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
from repro.core.pipeline import HardwareFirstLayerPipeline, kernel_set
from repro.engine.admission import (
    AdmissionController,
    SloClass,
    SloReport,
    build_slo_report,
)
from repro.engine.cache import WeightProgramCache
from repro.engine.chaos import ChaosPlan, ChaosTimeline
from repro.engine.failover import (
    BROWNOUT_REDUCED_BITS,
    BrownoutController,
    BrownoutReport,
    FailoverCoordinator,
    ResilienceReport,
    RetryPolicy,
    brownout_enabled,
)
from repro.engine.health import FaultProfile, HealthMonitor, HealthReport
from repro.engine.scheduler import (
    FrameScheduler,
    SchedulingPolicy,
    ServeLayers,
    scheduling_policy,
)
from repro.nn.layers import Sequential
from repro.nn.quant import QuantDense, UniformWeightQuantizer
from repro.sim.fleet import FleetModel, RadioModel
from repro.sim.stream import StreamEvent, StreamReport
from repro.util.blas import single_thread
from repro.util.rng import spawn_seeds
from repro.util.validation import check_count, check_positive

#: A die's read-noise slab closes once it holds at least this many floats,
#: four VGG-16 stem frames (64 kernels x 32 x 32 each).  Every slab is one
#: handoff from the helper, and the compute loop waits for the whole first
#: one.  At 2^16 ``zoo-cold`` read 2125-2175 frames/s against 2271-2296
#: here, and ``tenant-mix`` 5350-5488 against 5517-5617; at 2^20
#: ``zoo-cold`` read 2079-2091 (20-s perfbench runs on a 2-core x86 host).
#: One slab per chunk read ``mlp-stream`` 93-96k against about 120k.
_NOISE_SLAB_FLOATS = 1 << 18

#: Slabs the helper thread may draw ahead of the compute loop.  Two left
#: the loop waiting (``tenant-mix`` 4795-4902 against 5264-5451 frames/s
#: at 8, 5-s runs).  An unbounded lookahead lets a main-thread stall draw
#: a whole serve ahead: 300 VGG-16 read-outs are 157 MB.
_NOISE_LOOKAHEAD_SLABS = 8


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


class FrameResponse(NamedTuple):
    """The fate (and output) of one request (a named tuple: one is built
    per request)."""

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
    #: Host wall-clock of the whole :meth:`FrameServer.serve` or
    #: :meth:`~repro.engine.controlplane.ControlPlane.serve` call, from
    #: entry to return: validation, routing, scheduling, compute (when
    #: on) and report assembly.
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

    def record(self) -> dict:
        """This report as exact, wall-clock-free JSON: two serves are
        bit-identical exactly when their records are equal.

        Floats are ``repr`` strings, each output tensor is the SHA-256 of
        its float64 bytes, and ``node_frames`` has str keys in numeric
        order.  The ``health``, ``slo``, ``resilience``, ``brownout`` and
        ``controlplane`` parts are their dataclasses field by field, or
        ``None`` when absent.  The only host-side fields are the cache
        counters ``cache_hits`` and ``cache_misses``.
        """
        responses = []
        for response in self.responses:
            event, output = response.event, response.output
            responses.append(
                {
                    "index": response.index,
                    "model_key": response.model_key,
                    "node_id": response.node_id,
                    "arrival_s": repr(float(event.arrival_s)),
                    "start_s": repr(float(event.start_s)),
                    "finish_s": repr(float(event.finish_s)),
                    "dropped": event.dropped,
                    "remapped": event.remapped,
                    "degraded": response.degraded,
                    "output_sha256": (
                        None
                        if output is None
                        else hashlib.sha256(
                            np.ascontiguousarray(output, dtype=float).tobytes()
                        ).hexdigest()
                    ),
                    "served_model": response.served_model,
                }
            )
        return {
            "responses": responses,
            "total_energy_j": repr(float(self.stream.total_energy_j)),
            "frames": self.stream.frames,
            "dropped": self.stream.dropped,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "payload_bytes": self.payload_bytes,
            "radio_energy_j": repr(float(self.radio_energy_j)),
            "node_frames": {
                str(node): count
                for node, count in sorted(self.node_frames.items())
            },
            **{part: _exact(getattr(self, part)) for part in _LAYER_PARTS},
        }


#: The optional report parts, in record order.
_LAYER_PARTS = ("health", "slo", "resilience", "brownout", "controlplane")


def _exact(value):
    """``value`` as exact JSON: dataclasses become dicts of their fields,
    tuples lists, and floats ``repr`` strings (of ``float(value)``, so a
    NumPy float64 encodes as a Python float on NumPy 1 and 2)."""
    if dataclasses.is_dataclass(value):
        return {
            item.name: _exact(getattr(value, item.name))
            for item in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(item) for item in value]
    if isinstance(value, float):
        return repr(float(value))
    return value


@functools.lru_cache(maxsize=1024)
def _frame_tables(
    config: OISAConfig,
    bits: int,
    workload: ConvWorkload | MlpWorkload,
    tuning_latency_s: float,
    mapping_energy_j: float,
    radio: RadioModel,
) -> tuple[FrameTiming, FrameTiming, float, float, int, float]:
    """``(steady, remap, steady J, remap J, payload bytes, radio J)`` of
    one frame of ``workload`` at ``bits``-bit weights.

    A pure function of its arguments — a die enters only through the
    tuning budget of its program — so every server pricing one model on
    one die shares a single table.
    """
    config = config.with_weight_bits(bits)
    model = OISAEnergyModel(config)
    controller = TimingController(config)
    if isinstance(workload, MlpWorkload):
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
            controller.mapping_time_s(tuning_latency_s),
            compute_s,
            transmit_s,
        )
        steady_energy = model.mlp_frame_energy_j(plan).total
        remap_energy = model.mlp_frame_energy_j(
            plan, include_mapping=True, mapping_energy_j=mapping_energy_j
        ).total
        payload = math.ceil(outputs * FleetModel.FEATURE_BITS / 8)
        radio_j = radio.transmit_energy_j(payload)
    else:
        plan = plan_convolution(config, workload)
        steady = controller.frame_timing(plan)
        remap = controller.frame_timing(
            plan, remap_weights=True, tuning_latency_s=tuning_latency_s
        )
        steady_energy = model.frame_energy_j(plan).total
        remap_energy = model.frame_energy_j(
            plan, include_mapping=True, mapping_energy_j=mapping_energy_j
        ).total
        node_report = FleetModel(config, radio=radio).oisa_node(workload)
        payload = node_report.payload_bytes
        radio_j = node_report.radio_energy_j
    return steady, remap, steady_energy, remap_energy, payload, radio_j


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
        if self._stem is not None:
            # Builds the shared kernel set now, so a bad model fails
            # here rather than mid-serve.
            try:
                kernel_set(self._stem)
            except ValueError as error:
                raise ValueError(f"model {key!r}: {error}") from None
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
        #: Frame shape -> (payload bytes, radio energy [J]) per delivered
        #: frame, for every shape :meth:`timing_for` has seen.  It is
        #: die-independent, but a conv stem's feature map (and so its
        #: payload) scales with the frame.
        self.transport: dict[tuple[int, ...], tuple[int, float]] = {}
        self._readout_sizes: dict[tuple[int, ...], int] = {}

    def check_frame_shape(self, frame_shape: tuple[int, ...]) -> None:
        """Raise ``ValueError`` unless ``frame_shape`` fits the on-die layer.

        A dense stem takes any frame whose flattened length equals its
        input features; a conv stem takes ``(C, H, W)`` frames with its
        input channel count and a nonzero height and width.
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
        if min(frame_shape[1:]) < 1:
            raise ValueError(
                f"model {self.key!r} expects frames of nonzero height and "
                f"width, got shape {tuple(frame_shape)}"
            )

    def _workload(self, frame_shape):
        stem = self._stem
        if isinstance(stem, QuantDense):
            return MlpWorkload(
                input_features=int(np.prod(frame_shape)),
                output_features=stem.weight.data.shape[0],
            )
        channels, rows, cols = frame_shape
        return ConvWorkload(
            kernel_size=stem.kernel_size,
            num_kernels=stem.weight.data.shape[0],
            in_channels=channels,
            image_height=rows,
            image_width=cols,
            stride=stem.stride,
            padding=stem.padding,
        )

    def readout_size(self, frame_shape: tuple[int, ...]) -> int:
        """Floats the on-die layer reads out per frame of ``frame_shape``:
        kernels x output rows x output columns for a conv stem, the output
        features for a dense one."""
        size = self._readout_sizes.get(frame_shape)
        if size is None:
            workload = self._workload(frame_shape)
            if isinstance(workload, MlpWorkload):
                size = workload.output_features
            else:
                size = workload.num_kernels * workload.windows_per_channel
            self._readout_sizes[frame_shape] = size
        return size

    def timing_for(
        self, pipeline: HardwareFirstLayerPipeline, frame_shape: tuple[int, ...]
    ) -> tuple[FrameTiming, FrameTiming, float, float]:
        """(steady, remap) timings + energies for this model on this die.

        Computed once per (die, frame geometry) — normally from the first
        admitted frame's shape, or ahead of time by
        :meth:`FrameServer.warmup` — and priced by :func:`_frame_tables`,
        which every server shares.
        """
        key = (pipeline.opc.seed, tuple(frame_shape))
        cached = self._timed.get(key)
        if cached is not None:
            return cached
        tuning = pipeline.opc.programmed.tuning
        *timed, payload, radio_j = _frame_tables(
            self._config,
            pipeline.conv.quantizer.bits,
            self._workload(frame_shape),
            tuning.latency_s,
            tuning.energy_j,
            self._fleet.radio,
        )
        self.transport[key[1]] = (payload, radio_j)
        self._timed[key] = tuple(timed)
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


class _ReadNoiseAhead:
    """Each die's BPD read noise for one compute stage, drawn ahead on one
    helper thread.

    ``readouts`` holds the (OPC, read-out size) of every chunk that draws
    read noise, in compute order.  Consecutive chunks of one die form a
    slab, which closes once it holds :data:`_NOISE_SLAB_FLOATS` floats.
    The helper draws the slabs in order, each with one
    ``opc._read_rng.standard_normal(slab size)``, at most
    :data:`_NOISE_LOOKAHEAD_SLABS` ahead, and each OPC's
    ``read_noise_source`` hands a read-out its chunk's floats.  The draws
    are C-ordered and float64 normals keep no state between calls, so
    every read-out and every generator's final state equal the inline
    draws'.  A read-out the plan did not predict raises ``RuntimeError``.

    While the stage runs, only the helper draws from a planned die's
    ``_read_rng``.  :meth:`close` always runs: it joins the helper,
    uninstalls the sources and, when the stage stopped early, rewinds each
    generator to the floats actually read.
    """

    def __init__(
        self, readouts: list[tuple[OpticalProcessingCore, int]]
    ) -> None:
        self._readouts = readouts
        #: [opc, floats, generator state before its draw (once drawn)]
        self._slabs: list[list] = []
        for opc, size in readouts:
            last = self._slabs[-1] if self._slabs else None
            if last and last[0] is opc and last[1] < _NOISE_SLAB_FLOATS:
                last[1] += size
            else:
                self._slabs.append([opc, size])
        self._ready: queue.Queue = queue.Queue(maxsize=_NOISE_LOOKAHEAD_SLABS)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._read = 0  # read-outs handed out
        self._slab = -1  # slab the last one came from
        self._block = np.empty(0)
        self._offset = 0  # floats of that slab handed out

    def start(self) -> None:
        """Start the helper and install each planned die's source (no
        thread without a slab)."""
        if not self._slabs:
            return
        thread = threading.Thread(
            target=self._draw, name="read-noise-ahead", daemon=True
        )
        thread.start()
        self._thread = thread
        for opc, *_ in self._slabs:
            opc.read_noise_source = functools.partial(self._take, opc)

    def _draw(self) -> None:
        try:
            for slab in self._slabs:
                if self._stop.is_set():
                    return
                opc, size = slab
                rng = opc._read_rng
                slab.append(rng.bit_generator.state)
                self._ready.put(rng.standard_normal(size))
        except Exception as error:  # re-raised by the compute loop
            self._ready.put(error)

    def _take(self, opc: OpticalProcessingCore, size: int) -> np.ndarray:
        """The next ``size`` floats of ``opc``'s stream, for one read-out."""
        index = self._read
        if index == len(self._readouts):
            raise RuntimeError(
                f"read-out of {size} floats beyond the read-noise plan's "
                f"{index} read-outs"
            )
        planned_opc, planned = self._readouts[index]
        if planned_opc is not opc or planned != size:
            raise RuntimeError(
                f"read-out {index} of {size} floats does not match the "
                f"read-noise plan ({planned} floats on die seed "
                f"{planned_opc.seed})"
            )
        if self._offset == self._block.size:
            block = self._ready.get()
            if isinstance(block, Exception):
                raise RuntimeError("the read-noise helper failed") from block
            self._slab += 1
            self._block, self._offset = block, 0
        start = self._offset
        self._offset += size
        self._read = index + 1
        return self._block[start : self._offset]

    def finish(self) -> None:
        """Raise ``RuntimeError`` unless every planned read-out was taken."""
        unread = len(self._readouts) - self._read
        if unread:
            raise RuntimeError(f"{unread} planned read-outs were never read")

    def close(self) -> None:
        """Join the helper, uninstall every source, and rewind each die's
        generator to the floats read when the stage stopped early."""
        if self._thread is None:
            return
        self._stop.set()
        while True:  # unblock a helper waiting for room
            try:
                self._ready.get_nowait()
            except queue.Empty:
                break
        self._thread.join()
        for opc, *_ in self._slabs:
            opc.read_noise_source = None
        if self._read == len(self._readouts):
            return
        rewound: set[OpticalProcessingCore] = set()
        for index, (opc, size, *drawn) in enumerate(self._slabs):
            if not drawn:
                break  # the helper draws in order
            if index < self._slab:
                read = size
            else:
                read = self._offset if index == self._slab else 0
            if read == size or opc in rewound:
                continue
            # The first slab of this die not read in full: restart its
            # draw and take only what was read.
            rewound.add(opc)
            opc._read_rng.bit_generator.state = drawn[0]
            opc._read_rng.standard_normal(read)


def resolve_arrivals(
    requests: list[FrameRequest],
    models: dict[str, _ModelEntry],
    offered_fps: float,
) -> list[float]:
    """Validate a request stream and return each request's arrival [s].

    The one boundary check of :meth:`FrameServer.serve` and
    :meth:`~repro.engine.controlplane.ControlPlane.serve`: an unknown
    model key (a brownout variant's hidden ``@brownout`` key included), a
    non-finite or negative ``arrival_s``, a frame that is
    not a ``numpy.ndarray``, a frame whose dtype is not bool, integer or
    float (complex, string and object frames) or a frame shape the
    model's on-die layer cannot take raises ``ValueError`` naming the
    request's index in ``requests``.  Requests without ``arrival_s``
    arrive uniformly at ``offered_fps``.  The dtype and shape checks run
    once per distinct (model key, frame shape, dtype kind), which keeps
    the pass at a set lookup per request.
    """
    check_positive("offered_fps", offered_fps)
    interval = 1.0 / offered_fps
    checked: set[tuple[str, tuple[int, ...], str]] = set()
    arrivals: list[float] = []
    append = arrivals.append
    for index, request in enumerate(requests):
        arrival = request.arrival_s
        if arrival is None:
            arrival = index * interval
        elif not 0.0 <= arrival < math.inf:
            raise ValueError(
                f"request {index}: arrival_s must be finite and "
                f"non-negative, got {arrival!r}"
            )
        frame = request.frame
        if not isinstance(frame, np.ndarray):
            raise ValueError(
                f"request {index}: frame must be a numpy.ndarray, got "
                f"{type(frame).__name__}"
            )
        append(arrival)
        key = (request.model_key, frame.shape, frame.dtype.kind)
        if key in checked:
            continue
        entry = models.get(request.model_key)
        if entry is None or "@brownout" in request.model_key:
            raise ValueError(
                f"request {index}: unknown model key {request.model_key!r}"
            )
        if key[2] not in "biuf":
            raise ValueError(
                f"request {index}: frame dtype must be bool, integer or "
                f"float, got {frame.dtype}"
            )
        try:
            entry.check_frame_shape(key[1])
        except ValueError as error:
            raise ValueError(f"request {index}: {error}") from None
        checked.add(key)
    return arrivals


class FrameServer:
    """Micro-batched, cache-backed frame serving across N simulated nodes.

    Parameters
    ----------
    config:
        Architecture configuration shared by every node.
    num_nodes:
        Simulated dies serving the stream (distinct AWC mismatch seeds).
    micro_batch:
        Frames per forward call.  For LeNet-sized models the cost per
        frame moves little with it: batches 1 and 8 tie, and 16-128 cost
        10-30 % more per frame (README, tuning notes).
    cache:
        Weight-program cache; defaults to a fresh unbounded cache.
    seed:
        Base seed; node die seeds are spawned deterministically from it.
    enable_noise:
        Crosstalk + BPD read noise on each node's optics.
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
        ``{model_key: SloClass}`` service levels; ``None`` serves
        everything best-effort.  :meth:`serve_scenario` replaces them
        with the scenario's own.
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
        Warm-standby spare count (an integer >= 0); ``0`` disables
        failover spares.
    brownout:
        Degradation-tier admission: ``"standard"`` runs the
        :class:`~repro.engine.failover.BrownoutController` ladder, and
        ``None``/``"none"`` keeps admission tier-free.
    """

    def __init__(
        self,
        config: OISAConfig | None = None,
        num_nodes: int = 1,
        micro_batch: int = 16,
        cache: WeightProgramCache | None = None,
        seed: int | None = 0,
        enable_noise: bool = True,
        fault_profile: FaultProfile | str | None = None,
        policy: str | SchedulingPolicy = "greedy",
        slo_classes: dict[str, SloClass] | None = None,
        chaos_plan: ChaosPlan | str | None = None,
        retry_policy: RetryPolicy | str | None = None,
        spares: int = 0,
        brownout: str | None = None,
    ) -> None:
        check_count("num_nodes", num_nodes)
        check_count("micro_batch", micro_batch)
        check_count("spares", spares, minimum=0)
        self.config = config or OISAConfig()
        self.micro_batch = micro_batch
        self.cache = cache if cache is not None else WeightProgramCache()
        self.fleet = FleetModel(self.config)
        self._seed = seed
        self.policy = scheduling_policy(policy)
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
        self.spares = spares
        self.brownout = brownout_enabled(brownout)
        self._enable_noise = enable_noise
        seeds = spawn_seeds(seed, num_nodes)
        self.nodes = [
            self._new_node(index, seeds[index]) for index in range(num_nodes)
        ]
        self._models: dict[str, _ModelEntry] = {}

    # ------------------------------------------------------------------
    # Model management
    # ------------------------------------------------------------------
    def register_model(self, key: str, model: Sequential) -> None:
        """Register a QAT model under ``key`` (its first layer serves on-die)."""
        if key in self._models:
            raise ValueError(f"model key {key!r} is already registered")
        if "@brownout" in key:
            raise ValueError(
                f"model key {key!r}: '@brownout' marks the server's own "
                "reduced-bits variants"
            )
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

    @property
    def model_keys(self) -> tuple[str, ...]:
        """Registered model keys (internal ``@brownout`` variants hidden)."""
        return tuple(key for key in self._models if "@brownout" not in key)

    def warmup(
        self,
        model_keys: list[str] | tuple[str, ...] | None = None,
        frame_shape: tuple[int, ...] | None = None,
    ) -> dict[str, float]:
        """Pre-program known kernel sets so mid-stream swaps never stall.

        Runs the (vectorized, now-cheap) cold program path for every
        ``(model, node)`` pair up front: pipelines are built, each die's
        :class:`~repro.core.opc.ProgrammedWeights` lands in the program
        cache, and — when ``frame_shape`` is given — the per-die
        timing/energy tables are traced too.  After a warmup, every kernel
        swap during :meth:`serve` is a cache hit and the first frame of a
        new model pays no host-side mapping cost.

        Parameters
        ----------
        model_keys:
            Kernel sets to warm; defaults to every registered model.
        frame_shape:
            Optional ``(C, H, W)`` (conv) or flat-feature shape (dense) of
            the frames the stream will carry; warms the timing tables as
            well.

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
        consecutive same-model, same-shape runs per node.

        Every request is validated before anything is scheduled
        (:func:`resolve_arrivals`): bad input raises ``ValueError``
        naming the request index, with node state and cache counters
        untouched.

        While the compute stage runs, the process's OpenBLAS thread count
        is 1 (:func:`repro.util.blas.single_thread`) and, when the dies
        draw read noise, one helper thread draws it ahead.  So NumPy work
        on other threads in that window runs single-threaded BLAS.  Both
        end before ``serve`` returns or raises, and the caller's count
        comes back.

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
        if node_limit is not None:
            if not 1 <= node_limit <= len(self.nodes):
                raise ValueError(
                    f"node_limit must be in [1, {len(self.nodes)}], got "
                    f"{node_limit}"
                )
            if self._layered:
                # Nothing pins a layered serve under a limit to the
                # smaller fleet's stream (chaos timelines, monitors and
                # spare ids all size themselves from the fleet), and the
                # control plane builds plain shard servers, so the
                # combination has no user.
                raise ValueError(
                    "node_limit does not compose with fault/chaos/"
                    "failover layers; configure the shard server plain"
                )
        rate = offered_fps if offered_fps is not None else self.config.frame_rate_hz
        arrivals = resolve_arrivals(requests, self._models, rate)

        # Each serve() call simulates one stream starting at t = 0; kernel
        # residency (active/programmed models, cache) carries over, busy
        # state does not.
        for node in self.nodes:
            node.free_at = 0.0
            node.frames = 0

        # This call's fleet: warm spares join this list, never
        # ``self.nodes``, so they live for one serve call (their cache
        # entries — shared with the nodes they covered — persist).
        active = self.nodes[:node_limit]
        layers = self._build_layers(active)

        hits0, misses0 = self.cache.stats.hits, self.cache.stats.misses

        scheduler = FrameScheduler(
            active, self._models, self.policy, layers, admission=self.admission
        )
        result = scheduler.run(requests, arrivals)

        outputs = {}
        if compute:
            outputs = self._compute(requests, result.schedule, layers, active)

        report = ServeReport(stream=result.stream, **layers.report_fields())
        report.cache_hits = self.cache.stats.hits - hits0
        report.cache_misses = self.cache.stats.misses - misses0
        # This loop runs once per request, so its lookups are locals.
        append = report.responses.append
        placements = result.placements
        served_keys = result.served
        models = self._models
        payload_bytes = 0
        radio_energy_j = 0.0
        for index, request in enumerate(requests):
            node_id, event, tag = placements[index]
            served = served_keys.get(index)
            append(
                FrameResponse(
                    index,
                    request.model_key,
                    node_id,
                    outputs.get(index),
                    event,
                    tag > 0,
                    served,
                )
            )
            if not event.dropped:
                # Transport bills the key actually dispatched — a brownout
                # reduced-bits variant ships its own feature payload — at
                # this frame's own geometry.
                payload, radio_j = models[
                    served or request.model_key
                ].transport[request.frame.shape]
                payload_bytes += payload
                radio_energy_j += radio_j
        report.payload_bytes = payload_bytes
        report.radio_energy_j = radio_energy_j
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
        adopts its SLO classes, and serves its request list at
        ``offered_fps`` (default: the scenario's suggested rate, else the
        configured frame rate).  Adoption is per call: the scenario's
        classes replace any earlier ones (the constructor's
        ``slo_classes`` included), and a class-less scenario serves
        best-effort.  ``compute=False`` serves schedule-only, as in
        :meth:`serve`.

        Raises ``ValueError`` when the scenario reuses an already
        registered model key for a *different* kernel set (e.g. the same
        scenario name rebuilt at another seed) — serving scenario B's
        frames through scenario A's weights would silently corrupt every
        statistic.
        """
        self.adopt_models(scenario.models, origin=f"scenario {scenario.name!r}")
        self.admission = AdmissionController(scenario.slo_classes)
        rate = offered_fps if offered_fps is not None else scenario.offered_fps
        return self.serve(scenario.requests, offered_fps=rate, compute=compute)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @property
    def _layered(self) -> bool:
        """Whether any optional serving layer is configured."""
        return (
            self.fault_profile is not None
            or self.chaos_plan is not None
            or self.retry_policy is not None
            or self.spares > 0
            or self.brownout
        )

    def _build_layers(self, nodes: list[_Node]) -> ServeLayers:
        """This serve call's layers over ``nodes``: the plain path, or a
        fresh :class:`FailoverCoordinator` owning the health monitor (with
        the chaos timeline), retry, spares and brownout.

        Without a fault profile the monitor carries a neutral profile: no
        organic drift or upsets, only injected chaos events (if any) fire.
        """
        if not self._layered:
            return ServeLayers()
        timeline = brownout = reduced = None
        carrier = "none"
        if self.chaos_plan is not None:
            timeline = ChaosTimeline(self.chaos_plan, len(nodes), self._seed)
            carrier = f"chaos:{self.chaos_plan.name}"
        profile = self.fault_profile or FaultProfile(name=carrier)
        if self.brownout:
            brownout = BrownoutController()
            reduced = self._ensure_reduced_variants()
        monitor = HealthMonitor(
            profile, self.config, nodes, self.cache, self._seed, chaos=timeline
        )
        return FailoverCoordinator(
            monitor,
            retry=self.retry_policy,
            spares=self.spares,
            brownout=brownout,
            seed=self._seed,
            spare_factory=functools.partial(self._activate_spare, nodes),
            reduced_key=reduced,
        )

    def _new_node(self, node_id: int, seed: int) -> _Node:
        """A fresh node on die ``seed``, calibrated when the fault profile
        serves through pre-distortion."""
        node = _Node(
            node_id, self.config, seed, self.cache, self._enable_noise
        )
        if self.fault_profile is not None and self.fault_profile.calibrated:
            from repro.core.calibration import CalibratedAwcMapper

            node.opc.awc = CalibratedAwcMapper(node.opc.awc)
        return node

    def _activate_spare(
        self, nodes: list[_Node], covering: _Node, ready_s: float
    ) -> _Node:
        """Attach a warm spare to ``nodes``, adopting ``covering``'s die
        seed.

        Same die seed → same cache keys: every program the primary warmed
        is a cache hit on the spare and the installed records are
        bit-identical to the primary's.  The spare joins busy until
        ``ready_s`` (the spare's bring-up latency).
        """
        spare = self._new_node(len(nodes), covering.opc.seed)
        spare.free_at = ready_s
        nodes.append(spare)
        return spare

    def _ensure_reduced_variants(self) -> dict[str, str]:
        """Register reduced-precision variants for the brownout tier.

        Each registered model whose first quant layer exceeds
        :data:`~repro.engine.failover.BROWNOUT_REDUCED_BITS` gets a
        deep-copied twin quantized to that many bits, registered under
        ``"<key>@brownout<bits>b"`` (hidden from :attr:`model_keys`).
        Variants are real models — their timing/energy/accuracy books are
        the honest reduced-bit numbers, not a discount factor.
        """
        import copy

        bits = BROWNOUT_REDUCED_BITS
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

    def _chunks(
        self,
        requests: list[FrameRequest],
        schedule: list[tuple[int, int, str, int]],
        nodes: list[_Node],
    ) -> list[tuple[_Node, _ModelEntry, int, list[int]]]:
        """The admitted frames as ``(node, model, tag, frame indices)``
        micro-batches of at most ``micro_batch`` frames, in compute order.

        Runs are grouped within each node's own subsequence — two nodes
        interleaving in global arrival order must not fragment each
        other's batches — and break wherever the model, the degradation
        tag or the frame shape changes: a model may take frames of more
        than one shape (a dense stem takes any shape of the right
        length), and a chunk stacks frames of one shape.
        """
        per_node: dict[int, list[tuple]] = {}
        for idx, node_id, model_key, tag in schedule:
            per_node.setdefault(node_id, []).append(
                ((model_key, tag, requests[idx].frame.shape), idx)
            )
        step = self.micro_batch
        chunks = []
        for node_id, entries in per_node.items():
            node = nodes[node_id]
            for (model_key, tag, _), group in itertools.groupby(
                entries, key=lambda entry: entry[0]
            ):
                run = [idx for _, idx in group]
                entry = self._models[model_key]
                chunks.extend(
                    (node, entry, tag, run[start : start + step])
                    for start in range(0, len(run), step)
                )
        return chunks

    def _compute(
        self,
        requests: list[FrameRequest],
        schedule: list[tuple[int, int, str, int]],
        layers: ServeLayers,
        nodes: list[_Node],
    ) -> dict[int, np.ndarray]:
        """Run the admitted frames, one ``forward`` per :meth:`_chunks`
        micro-batch.

        Under a fault profile, frames admitted during an upset window
        compute through that upset's frozen
        :class:`~repro.sim.faults.FaultyOpticalCore`, frames before/after
        it on the healthy programmed core.  Each die's read noise is drawn
        ahead on a helper thread (:class:`_ReadNoiseAhead`), and OpenBLAS
        runs one thread meanwhile, so the helper has the other core.
        """
        chunks = self._chunks(requests, schedule, nodes)
        noise = _ReadNoiseAhead(
            [
                (
                    node.opc,
                    len(frames)
                    * entry.readout_size(requests[frames[0]].frame.shape),
                )
                for node, entry, _, frames in chunks
                if node.opc.draws_read_noise
            ]
        )
        outputs: dict[int, np.ndarray] = {}
        with single_thread():
            noise.start()
            try:
                for node, entry, tag, frames in chunks:
                    pipeline = node.activate(entry)
                    core = layers.fault_core(node, entry.key, tag)
                    batch = np.array(
                        [requests[idx].frame for idx in frames], dtype=float
                    )
                    logits = pipeline.forward(
                        batch, batch_size=len(frames), core=core
                    )
                    outputs.update(zip(frames, logits))
                noise.finish()
            finally:
                noise.close()
        return outputs
