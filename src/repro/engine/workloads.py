"""Workload scenarios: traffic generators over the model zoo.

The serving demos historically hard-coded one synthetic stream (two
LeNets, uniform arrivals, half/half split).  A scheduling engine needs to
be exercised by the traffic it will actually face — CamJ-style system
studies treat the workload mix as a first-class axis — so this module
makes scenarios *data*:

* :class:`ModelSpec` — one zoo entry: a model family (LeNet / MLP /
  VGG-16 first layer / ResNet-18 first layer) at a weight bit width, with
  its frame geometry.  The VGG/ResNet entries are first-layer-only
  pipelines (ternary input + quantized stem convolution) — exactly the
  part of the network OISA computes in-sensor, and what a node ships
  off-die per the paper's thing-centric argument;
* :class:`Scenario` — models + a concrete request list (explicit arrival
  times) + optional per-model :class:`~repro.engine.admission.SloClass`
  map, servable via :meth:`FrameServer.serve_scenario`;
* scenario generators registered under stable keys
  (:func:`register_scenario` / :func:`build_scenario` /
  :func:`scenario_registry`, mirroring :mod:`repro.sim.platforms`).
  A registration holds everything a key is built from, once: its
  description, a *models builder* ``models(seed)``, its
  ``{model_key: SloClass}`` map and a *traffic generator*
  ``traffic(frames, offered_fps, seed, draws)`` that returns the request
  list alone, drawing every frame's pixels through ``draws``.  One
  function (:func:`_generate`) builds every :class:`Scenario` from a
  registration, named by its lower-case key — for
  :func:`build_scenario`, for a re-time and, from an unregistered entry,
  for :func:`models_scenario`.  No model and no pixel depends
  on the rate, so :meth:`Scenario.at_rate` re-times a registry-built
  scenario — same model objects and the base build's frame arrays, with
  arrivals, model choices and keys regenerated exactly as
  :func:`build_scenario` would at the new rate — which is how a
  capacity study builds its models and frames once instead of once per
  probe.
  The registered keys:
  ``default`` (the historical two-LeNet demo, kept bit-compatible),
  ``poisson`` (memoryless arrivals), ``poisson-burst`` (ON/OFF bursts),
  ``diurnal`` (deterministic sinusoidal rate ramp), ``mixed-tenants``
  (interactive vs. batch tenants with SLO classes — the policy-bench
  scenario), ``chaos`` (the resilience-drill stream),
  ``diurnal-regions`` (phase-shifted regional streams — the autoscaling
  drill) and ``zoo`` (round-robin over every family and bit width).

Determinism: every stochastic draw comes from
``np.random.default_rng(seed)`` streams derived per scenario, so a fixed
(scenario, frames, fps, seed) triple reproduces the same request list —
and therefore, via the scheduler's determinism contract, the same
``ServeReport`` — bit-for-bit.  Frame generation is vectorized where the
draw order allows it (:func:`_frames_batch` replaces the historical
per-frame loop with one flat draw, bit-identically); generators whose
frame draws interleave with arrival draws keep the sequential loop.
Either way the draw goes through one recorder (:class:`_PixelRecorder`),
which a re-time replays instead of drawing again.  Stream merging breaks
arrival ties on an explicit ``(arrival_s, tenant, index)`` key.

Units: arrival times in *simulated* seconds, rates in frames/second;
frames are read-only (C, H, W) float arrays on a unit pixel scale, shared
by a scenario and its re-times.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from repro.engine.admission import SloClass
from repro.engine.server import FrameRequest
from repro.nn.layers import Sequential
from repro.nn.models import (
    FirstLayerConfig,
    TernaryInputLayer,
    build_lenet,
    build_mlp,
)
from repro.nn.quant import QuantConv2D
from repro.util.rng import spawn_seeds
from repro.util.validation import (
    check_count,
    check_positive,
    parse_field,
    registry_key,
)

#: Frame geometry per family: (in_channels, height, width).
_FAMILY_FRAME_SHAPES: dict[str, tuple[int, int, int]] = {
    "lenet": (1, 28, 28),
    "mlp": (1, 28, 28),
    "vgg16": (3, 32, 32),
    "resnet18": (3, 32, 32),
}

#: First-layer stem geometry for the conv-only families:
#: (out_channels, kernel_size, stride, padding).  Both CIFAR-class stems
#: are 3x3/64 — they differ as kernel *sets* (independent weights), which
#: is what the serving cache/scheduler care about.
_STEM_GEOMETRY: dict[str, tuple[int, int, int, int]] = {
    "vgg16": (64, 3, 1, 1),
    "resnet18": (64, 3, 1, 1),
}


@dataclass(frozen=True)
class ModelSpec:
    """One zoo entry: family + weight bit width (+ derived frame shape)."""

    family: str
    weight_bits: int = 4

    def __post_init__(self) -> None:
        if self.family not in _FAMILY_FRAME_SHAPES:
            raise ValueError(
                f"unknown model family {self.family!r}; known: "
                f"{', '.join(sorted(_FAMILY_FRAME_SHAPES))}"
            )
        if not 1 <= self.weight_bits <= 4:
            raise ValueError(
                f"weight_bits must be in [1, 4], got {self.weight_bits}"
            )

    @property
    def key(self) -> str:
        """Stable model key, e.g. ``"lenet-4b"``."""
        return f"{self.family}-{self.weight_bits}b"

    @property
    def frame_shape(self) -> tuple[int, int, int]:
        """(C, H, W) geometry of the frames this model serves."""
        return _FAMILY_FRAME_SHAPES[self.family]

    def build(self, seed: int | None = None) -> Sequential:
        """Construct the servable model (full net or first-layer stem)."""
        config = FirstLayerConfig(weight_bits=self.weight_bits)
        if self.family == "lenet":
            return build_lenet(first_layer=config, seed=seed)
        if self.family == "mlp":
            channels, rows, cols = self.frame_shape
            return build_mlp(
                in_features=channels * rows * cols,
                hidden=(64,),
                first_layer=config,
                seed=seed,
            )
        kernels, size, stride, padding = _STEM_GEOMETRY[self.family]
        channels = self.frame_shape[0]
        return Sequential(
            [
                TernaryInputLayer(),
                QuantConv2D(
                    channels,
                    kernels,
                    size,
                    bits=self.weight_bits,
                    stride=stride,
                    padding=padding,
                    use_bias=False,
                    seed=seed,
                ),
            ]
        )


def parse_model_specs(text: str) -> tuple[ModelSpec, ...]:
    """Parse a CLI model list like ``"lenet:4,mlp:2,vgg16:1"``.

    Each token is ``family[:bits]`` (bits default to 4).
    """
    specs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        family, _, bits = token.partition(":")
        family = registry_key("model family", family, _FAMILY_FRAME_SHAPES)
        weight_bits = (
            parse_field(int, f"{family} weight bits", bits, "family[:bits]")
            if bits
            else 4
        )
        specs.append(ModelSpec(family, weight_bits))
    if not specs:
        raise ValueError(f"no model specs in {text!r}")
    return tuple(specs)


@dataclass
class Scenario:
    """Models + request stream + SLO classes, ready to serve."""

    name: str
    description: str
    models: dict[str, Sequential]
    requests: list[FrameRequest]
    slo_classes: dict[str, SloClass] = field(default_factory=dict)
    #: Rate the arrivals were generated for (and the fallback interval for
    #: requests without explicit timestamps).
    offered_fps: float | None = None
    #: ``(registration, frames, seed, pixel recording)`` the traffic was
    #: generated from.  Not an ``__init__`` field, so only the registry
    #: sets it: a hand-built scenario, or a copy made by
    #: ``dataclasses.replace``, has none and cannot be re-timed.
    _origin: tuple[_Registration, int, int, list] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def model_keys(self) -> tuple[str, ...]:
        return tuple(self.models)

    def at_rate(self, offered_fps: float) -> "Scenario":
        """This scenario at another offered rate.

        Keeps these model objects and reuses this scenario's read-only
        frame arrays; arrivals, model choices and keys are regenerated
        exactly as :func:`build_scenario` would at ``offered_fps`` (same
        key, frames and seed), which skips each pixel draw by advancing
        the generator past it (:class:`_PixelRecorder`).  The frames and
        keys therefore equal a fresh build's byte for byte.  Raises
        ``ValueError`` for a scenario the registry did not build, or one
        changed with ``dataclasses.replace`` — re-timing it would
        silently discard the edit.
        """
        if self._origin is None:
            raise ValueError(
                f"scenario {self.name!r} was not built by build_scenario "
                "(or was changed since); it cannot be re-timed"
            )
        check_positive("offered_fps", offered_fps)
        entry, frames, seed, recording = self._origin
        return _generate(
            entry,
            dict(self.models),
            frames,
            offered_fps,
            seed,
            _PixelRecorder(recording),
        )


#: Builds a scenario's models from its seed alone.
ModelsBuilder = Callable[[int], dict[str, Sequential]]
#: Builds a scenario's request list:
#: (frames, offered_fps, seed, pixel recorder).
TrafficGenerator = Callable[
    [int, float, int, "_PixelRecorder"], list[FrameRequest]
]


class _Registration(NamedTuple):
    """What one scenario key is built from, defined once."""

    key: str
    description: str
    models: ModelsBuilder
    slo_classes: dict[str, SloClass]
    traffic: TrafficGenerator


#: Registered scenarios by lower-case key, in registration order.
_SCENARIOS: dict[str, _Registration] = {}


def register_scenario(
    key: str,
    description: str,
    models: ModelsBuilder,
    slo_classes: dict[str, SloClass],
):
    """Decorator registering a scenario's traffic generator under ``key``.

    The registration holds the scenario's metadata: its description, its
    models builder ``models(seed)`` and its ``{model_key: SloClass}`` map
    (``{}`` serves every model best-effort).  The decorated
    ``traffic(frames, offered_fps, seed, draws)`` returns the request list
    alone, drawing every frame through ``draws`` (:func:`_frames_batch`);
    :func:`_generate` builds the :class:`Scenario` around it, named by the
    lower-case key.  The models depend on the seed alone, and the sequence
    of frame shapes drawn must not depend on the rate either:
    :meth:`Scenario.at_rate` reuses the frames of the base build and
    regenerates only arrivals, choices and keys, and its replay raises if
    a generator breaks that.
    """

    def decorator(fn: TrafficGenerator):
        lowered = key.lower()
        if lowered in _SCENARIOS:
            raise ValueError(f"scenario {lowered!r} is already registered")
        _SCENARIOS[lowered] = _Registration(
            lowered, description, models, slo_classes, fn
        )
        return fn

    return decorator


def scenario_registry() -> tuple[str, ...]:
    """Registered scenario keys, in registration order."""
    return tuple(_SCENARIOS)


def build_scenario(
    key: str,
    frames: int = 64,
    offered_fps: float = 1000.0,
    seed: int = 0,
) -> Scenario:
    """Generate a registered scenario's models + request stream."""
    check_count("frames", frames)
    check_positive("offered_fps", offered_fps)
    entry = _SCENARIOS[registry_key("scenario", key, _SCENARIOS)]
    return _generate(
        entry, entry.models(seed), frames, offered_fps, seed, _PixelRecorder()
    )


def _generate(
    entry: _Registration,
    models: dict[str, Sequential],
    frames: int,
    offered_fps: float,
    seed: int,
    draws: _PixelRecorder | None,
) -> Scenario:
    """Run ``entry``'s traffic generator into a :class:`Scenario`.

    Every scenario this module returns is built here.  ``draws`` records
    the pixel draws of a
    registry build, or replays them on a re-time, and the scenario keeps
    them as its origin; ``None`` builds an ad-hoc scenario
    (:func:`models_scenario`), which keeps no origin and cannot be
    re-timed.
    """
    recorder = _PixelRecorder() if draws is None else draws
    scenario = Scenario(
        name=entry.key,
        description=entry.description,
        models=models,
        requests=entry.traffic(frames, offered_fps, seed, recorder),
        slo_classes=dict(entry.slo_classes),
        offered_fps=offered_fps,
    )
    if draws is not None:
        scenario._origin = (entry, frames, seed, draws.finish())
    return scenario


# ----------------------------------------------------------------------
# Generator helpers
# ----------------------------------------------------------------------
def _build_models(
    specs: tuple[ModelSpec, ...], seed: int
) -> dict[str, Sequential]:
    seeds = spawn_seeds(seed, len(specs))
    return {spec.key: spec.build(seeds[i]) for i, spec in enumerate(specs)}


class _PixelRecorder:
    """Every pixel draw of one traffic generation, recorded or replayed.

    A registry build records: each :meth:`draw` takes one flat
    ``uniform(0, 1, n)``, marks it read-only and keeps the frames it
    splits into.  A re-time (:meth:`Scenario.at_rate`) replays that
    recording: each draw returns the recorded frames of the same call and
    ``advance(n)``-s the generator past the doubles it skips — PCG64,
    NumPy's default bit generator, spends exactly one 64-bit output per
    uniform double — so every later arrival, choice and key draw reads
    the stream a fresh build would.  A replay that meets frames of other
    shapes, or ends with recorded draws unused, raises rather than
    return misaligned frames.
    """

    def __init__(self, recording: list | None = None) -> None:
        self._replaying = recording is not None
        #: ``(shapes, n, frames)`` per draw call, in draw order.
        self.recording: list[tuple[list, int, list[np.ndarray]]] = (
            [] if recording is None else recording
        )
        self._next = 0

    def draw(
        self, rng: np.random.Generator, shapes: list[tuple[int, ...]]
    ) -> list[np.ndarray]:
        """One read-only frame per shape, from one flat ``uniform`` draw."""
        if self._replaying:
            index = self._next
            recording = self.recording
            if index == len(recording) or recording[index][0] != shapes:
                raise RuntimeError(
                    f"pixel draw {index} of this re-time differs from the "
                    "base build's: a traffic generator's frame draws must "
                    "not depend on the rate"
                )
            self._next += 1
            _, n, frames = recording[index]
            rng.bit_generator.advance(n)
            return frames
        # ``math.prod``, not ``np.prod``: this runs once per frame.
        sizes = [math.prod(shape) for shape in shapes]
        n = sum(sizes)
        flat = rng.uniform(0.0, 1.0, n)
        flat.flags.writeable = False
        frames = []
        offset = 0
        for shape, size in zip(shapes, sizes):
            frames.append(flat[offset : offset + size].reshape(shape))
            offset += size
        self.recording.append((shapes, n, frames))
        return frames

    def finish(self) -> list:
        """The recording, once a replay has used all of it."""
        if self._replaying and self._next != len(self.recording):
            raise RuntimeError(
                f"this re-time made {self._next} pixel draws, the base "
                f"build {len(self.recording)}: a traffic generator's frame "
                "draws must not depend on the rate"
            )
        return self.recording


def _frames_batch(
    rng: np.random.Generator, specs: list[ModelSpec], draws: _PixelRecorder
) -> list[np.ndarray]:
    """Draw one frame per spec in a single flat ``uniform`` call.

    Bit-identical to one ``rng.uniform(0, 1, spec.frame_shape)`` per
    spec: a NumPy ``Generator`` fills a ``uniform`` request element-wise
    from one stream, so one flat draw split at the per-frame sizes
    reproduces the exact floats of the per-frame draws it replaces — even
    across heterogeneous frame shapes.  Generators that interleave frame
    draws with other stochastic draws (the bursty ON/OFF scenarios) draw
    one frame per call in a sequential loop instead.  The frames are
    read-only: ``draws`` records them on a registry build and hands the
    same arrays back on a re-time.
    ``test_frames_batch_matches_per_frame_draws`` in
    ``tests/test_engine_workloads.py`` pins the equality.
    """
    return draws.draw(rng, [spec.frame_shape for spec in specs])


def _interleave(streams: list[list[FrameRequest]]) -> list[FrameRequest]:
    """Merge per-tenant streams into one arrival-sorted request list.

    Ties break on an explicit ``(arrival_s, tenant, index)`` key — tenant
    name (the model key when unset, matching the billing fallback) then
    position within its own stream — so equal-arrival requests across
    tenants never depend on incidental list order.
    """
    keyed = [
        (request.arrival_s, request.tenant or request.model_key, index, request)
        for stream in streams
        for index, request in enumerate(stream)
    ]
    keyed.sort(key=lambda item: item[:3])
    return [request for *_, request in keyed]


def _poisson_arrivals(
    rng: np.random.Generator, frames: int, rate_fps: float
) -> list[float]:
    gaps = rng.exponential(1.0 / rate_fps, frames)
    return list(np.cumsum(gaps))


def _round_robin(
    specs: tuple[ModelSpec, ...],
    frames: int,
    offered_fps: float,
    seed: int,
    draws: _PixelRecorder,
) -> list[FrameRequest]:
    """Uniform arrivals cycling through ``specs`` in order."""
    rng = np.random.default_rng(seed)
    chosen = [specs[i % len(specs)] for i in range(frames)]
    stacks = _frames_batch(rng, chosen, draws)
    return [
        FrameRequest(stacks[i], chosen[i].key, arrival_s=i / offered_fps)
        for i in range(frames)
    ]


# ----------------------------------------------------------------------
# SLO classes
# ----------------------------------------------------------------------
# The admission controller requires classes sharing a name to be equal,
# so each class several scenarios use is defined once, here.

#: A queueable 20 ms deadline for every frame of a stream.
_STREAM = SloClass(name="stream", deadline_s=0.02, drop_policy="deadline")

#: A latency-critical tenant: 8 ms deadline, top tier, triple WFQ share.
_INTERACTIVE = SloClass(
    name="interactive",
    priority=2,
    deadline_s=0.008,
    drop_policy="deadline",
    weight=3.0,
)

#: A tenant that queues long and sheds first.
_BATCH = SloClass(
    name="batch",
    priority=0,
    deadline_s=0.05,
    drop_policy="deadline",
    weight=1.0,
    max_queue_s=0.02,
)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def _default_models(seed: int) -> dict[str, Sequential]:
    return {
        "model-a": build_lenet(seed=seed),
        "model-b": build_lenet(seed=seed + 1),
    }


@register_scenario(
    "default",
    "historical two-LeNet demo: uniform arrivals, half/half model split",
    _default_models,
    {},
)
def _default_traffic(
    frames: int, offered_fps: float, seed: int, draws: _PixelRecorder
) -> list[FrameRequest]:
    # Byte-for-byte the stream `repro serve` always generated: frames from
    # default_rng(seed), model-a/b = LeNets at seed/seed+1, implicit
    # uniform arrivals (the server derives them from the offered rate).
    rng = np.random.default_rng(seed)
    stack = draws.draw(rng, [(1, 28, 28)] * frames)
    return [
        FrameRequest(stack[i], "model-a" if i < frames // 2 else "model-b")
        for i in range(frames)
    ]


#: The LeNet + MLP mix of the ``poisson``, ``poisson-burst`` and ``chaos``
#: scenarios.
_LENET_MLP = (ModelSpec("lenet", 4), ModelSpec("mlp", 2))


@register_scenario(
    "poisson",
    "memoryless arrivals over a LeNet+MLP mix (queueable 20 ms deadline)",
    functools.partial(_build_models, _LENET_MLP),
    {spec.key: _STREAM for spec in _LENET_MLP},
)
def _poisson_traffic(
    frames: int, offered_fps: float, seed: int, draws: _PixelRecorder
) -> list[FrameRequest]:
    rng = np.random.default_rng(seed)
    specs = _LENET_MLP
    arrivals = _poisson_arrivals(rng, frames, offered_fps)
    choices = rng.random(frames)
    chosen = [specs[0] if choices[i] < 0.7 else specs[1] for i in range(frames)]
    stacks = _frames_batch(rng, chosen, draws)
    return [
        FrameRequest(stacks[i], chosen[i].key, arrival_s=arrivals[i])
        for i in range(frames)
    ]


@register_scenario(
    "poisson-burst",
    "ON/OFF Poisson bursts (4x rate, 30% duty) over a LeNet+MLP mix",
    functools.partial(_build_models, _LENET_MLP),
    {spec.key: _STREAM for spec in _LENET_MLP},
)
def _burst_traffic(
    frames: int, offered_fps: float, seed: int, draws: _PixelRecorder
) -> list[FrameRequest]:
    rng = np.random.default_rng(seed)
    specs = _LENET_MLP
    period_s, duty, multiplier = 0.04, 0.3, 4.0
    # Off-rate chosen so the long-run average stays at offered_fps.
    off_rate = offered_fps * (1.0 - duty * multiplier) / (1.0 - duty)
    off_rate = max(off_rate, offered_fps * 0.05)
    requests = []
    now = 0.0
    choices = rng.random(frames)
    for i in range(frames):
        in_burst = (now % period_s) < duty * period_s
        rate = offered_fps * multiplier if in_burst else off_rate
        now += rng.exponential(1.0 / rate)
        spec = specs[0] if choices[i] < 0.6 else specs[1]
        frame = _frames_batch(rng, [spec], draws)[0]
        requests.append(FrameRequest(frame, spec.key, arrival_s=now))
    return requests


_LENET_WIDTHS = (ModelSpec("lenet", 4), ModelSpec("lenet", 2))


@register_scenario(
    "diurnal",
    "deterministic sinusoidal rate ramp (0.4x-1.6x) over two LeNet widths",
    functools.partial(_build_models, _LENET_WIDTHS),
    {},
)
def _diurnal_traffic(
    frames: int, offered_fps: float, seed: int, draws: _PixelRecorder
) -> list[FrameRequest]:
    rng = np.random.default_rng(seed)
    specs = _LENET_WIDTHS
    # Arrivals stay a sequential accumulation (``math.sin`` per step, the
    # historical ULP-exact floats); the frame draws hoist into one call.
    arrivals = []
    now = 0.0
    for i in range(frames):
        # One full "day" over the stream; rate swings 0.4x..1.6x.
        phase = 2.0 * math.pi * i / frames
        rate = offered_fps * (1.0 + 0.6 * math.sin(phase))
        now += 1.0 / rate
        arrivals.append(now)
    chosen = [specs[i % len(specs)] for i in range(frames)]
    stacks = _frames_batch(rng, chosen, draws)
    return [
        FrameRequest(stacks[i], chosen[i].key, arrival_s=arrivals[i])
        for i in range(frames)
    ]


#: SLO classes of the ``mixed-tenants`` scenario (also used by the
#: serving-policy bench): an interactive tenant with a 6 ms deadline and
#: triple WFQ share, and shed-first batch tenants.
MIXED_TENANT_CLASSES: dict[str, SloClass] = {
    "lenet-4b": SloClass(
        name="interactive",
        priority=2,
        deadline_s=0.006,
        drop_policy="deadline",
        weight=3.0,
    ),
    "mlp-2b": _BATCH,
    "vgg16-1b": _BATCH,
}


#: The interactive tenant's model, then the batch tenants'.
_MIXED_TENANTS = (
    ModelSpec("lenet", 4),
    ModelSpec("mlp", 2),
    ModelSpec("vgg16", 1),
)


@register_scenario(
    "mixed-tenants",
    "interactive LeNet tenant (tight SLO) vs bursty batch tenants "
    "(MLP + VGG16 stem) oversubscribing the fleet",
    functools.partial(_build_models, _MIXED_TENANTS),
    MIXED_TENANT_CLASSES,
)
def _mixed_tenant_traffic(
    frames: int, offered_fps: float, seed: int, draws: _PixelRecorder
) -> list[FrameRequest]:
    rng = np.random.default_rng(seed)
    interactive, *batch_specs = _MIXED_TENANTS

    n_interactive = frames // 2
    n_batch = frames - n_interactive
    # Interactive: steady uniform arrivals at just over half the offered
    # rate — a well-behaved tenant.
    interactive_frames = _frames_batch(
        rng, [interactive] * n_interactive, draws
    )
    interactive_stream = [
        FrameRequest(
            interactive_frames[i],
            interactive.key,
            arrival_s=i / (0.55 * offered_fps),
            tenant="interactive",
        )
        for i in range(n_interactive)
    ]
    # Batch: ON/OFF bursts at 5x during 25% duty windows — during a burst
    # the combined offered rate exceeds fleet capacity.
    period_s, duty, multiplier = 0.05, 0.25, 5.0
    base = 0.45 * offered_fps
    off_rate = max(base * (1.0 - duty * multiplier) / (1.0 - duty), base * 0.05)
    batch_stream = []
    now = 0.0
    choices = rng.random(n_batch)
    for i in range(n_batch):
        in_burst = (now % period_s) < duty * period_s
        rate = base * multiplier if in_burst else off_rate
        now += rng.exponential(1.0 / rate)
        spec = batch_specs[0] if choices[i] < 0.7 else batch_specs[1]
        batch_stream.append(
            FrameRequest(
                _frames_batch(rng, [spec], draws)[0],
                spec.key,
                arrival_s=now,
                tenant="batch",
            )
        )
    return _interleave([interactive_stream, batch_stream])


@register_scenario(
    "chaos",
    "steady interactive LeNet tenant + Poisson batch MLP tenant, sized "
    "so a chaos node-loss window endangers the interactive deadline",
    functools.partial(_build_models, _LENET_MLP),
    {"lenet-4b": _INTERACTIVE, "mlp-2b": _BATCH},
)
def _chaos_traffic(
    frames: int, offered_fps: float, seed: int, draws: _PixelRecorder
) -> list[FrameRequest]:
    # The resilience-drill stream: interactive traffic is a steady,
    # well-behaved tenant at two thirds of the offered rate — enough that
    # losing a node mid-stream (the ``node-loss`` chaos plan) overloads
    # the survivors and burns interactive deadlines unless the failover
    # layer (retry + warm spares) absorbs the window.
    rng = np.random.default_rng(seed)
    interactive, batch = _LENET_MLP

    n_interactive = (2 * frames) // 3
    n_batch = frames - n_interactive
    interactive_frames = _frames_batch(
        rng, [interactive] * n_interactive, draws
    )
    interactive_stream = [
        FrameRequest(
            interactive_frames[i],
            interactive.key,
            arrival_s=i / (2.0 / 3.0 * offered_fps),
            tenant="interactive",
        )
        for i in range(n_interactive)
    ]
    batch_arrivals = _poisson_arrivals(rng, n_batch, offered_fps / 3.0)
    batch_frames = _frames_batch(rng, [batch] * n_batch, draws)
    batch_stream = [
        FrameRequest(
            batch_frames[i],
            batch.key,
            arrival_s=batch_arrivals[i],
            tenant="batch",
        )
        for i in range(n_batch)
    ]
    return _interleave([interactive_stream, batch_stream])


#: Regions of the ``diurnal-regions`` scenario, in stream order.  Each
#: region serves its *own* interactive model key (a regionally fine-tuned
#: LeNet) so a sharded control plane can place one region per shard and
#: route by model hosting rather than by tenant-hash luck.
DIURNAL_REGIONS: tuple[str, ...] = ("na", "eu", "ap")


def _diurnal_regions_models(seed: int) -> dict[str, Sequential]:
    lenet, batch = _LENET_MLP
    seeds = spawn_seeds(seed, len(DIURNAL_REGIONS) + 1)
    models: dict[str, Sequential] = {
        f"lenet-4b@{region}": lenet.build(seeds[index])
        for index, region in enumerate(DIURNAL_REGIONS)
    }
    models[batch.key] = batch.build(seeds[len(DIURNAL_REGIONS)])
    return models


@register_scenario(
    "diurnal-regions",
    "three phase-shifted regional diurnal interactive streams (one LeNet "
    "per region) + a Poisson batch MLP tail — the autoscaling drill",
    _diurnal_regions_models,
    {
        **{f"lenet-4b@{region}": _INTERACTIVE for region in DIURNAL_REGIONS},
        "mlp-2b": _BATCH,
    },
)
def _diurnal_regions_traffic(
    frames: int, offered_fps: float, seed: int, draws: _PixelRecorder
) -> list[FrameRequest]:
    # The multi-region story: each region's interactive demand swings
    # through a deep diurnal cycle (0.15x..1.85x), but the three phases
    # are spaced a third of a "day" apart, so the *global* rate is nearly
    # flat — only a control plane that shards by region and autoscales
    # each shard against its own regional swing can harvest the trough
    # capacity.  A single static fleet sized for the regional peak wastes
    # it around the clock.
    rng = np.random.default_rng(seed)
    lenet, batch = _LENET_MLP
    n_batch = frames // 5
    n_interactive = frames - n_batch
    base = 0.25 * offered_fps  # per-region average interactive rate
    streams: list[list[FrameRequest]] = []
    for index, region in enumerate(DIURNAL_REGIONS):
        count = n_interactive // len(DIURNAL_REGIONS) + (
            1 if index < n_interactive % len(DIURNAL_REGIONS) else 0
        )
        # Not ``diurnal``'s loop with an offset: ``i / count + index / 3``
        # rounds differently from ``i / frames`` even at index 0.
        arrivals = []
        now = 0.0
        for i in range(count):
            # One full day over the stream, phase-shifted per region.
            phase = 2.0 * math.pi * (
                i / count + index / len(DIURNAL_REGIONS)
            )
            rate = base * (1.0 + 0.85 * math.sin(phase))
            now += 1.0 / rate
            arrivals.append(now)
        region_frames = _frames_batch(rng, [lenet] * count, draws)
        streams.append(
            [
                FrameRequest(
                    region_frames[i],
                    f"lenet-4b@{region}",
                    arrival_s=arrivals[i],
                    tenant=f"{region}:interactive",
                )
                for i in range(count)
            ]
        )
    batch_arrivals = _poisson_arrivals(rng, n_batch, 0.2 * offered_fps)
    batch_frames = _frames_batch(rng, [batch] * n_batch, draws)
    streams.append(
        [
            FrameRequest(
                batch_frames[i],
                batch.key,
                arrival_s=batch_arrivals[i],
                tenant="batch",
            )
            for i in range(n_batch)
        ]
    )
    return _interleave(streams)


#: The ``zoo`` scenario's models: every family at two bit widths.
ZOO: tuple[ModelSpec, ...] = (
    ModelSpec("lenet", 4),
    ModelSpec("lenet", 2),
    ModelSpec("mlp", 4),
    ModelSpec("mlp", 2),
    ModelSpec("vgg16", 4),
    ModelSpec("vgg16", 1),
    ModelSpec("resnet18", 4),
    ModelSpec("resnet18", 2),
)

register_scenario(
    "zoo",
    "round-robin over every model family at several bit widths",
    functools.partial(_build_models, ZOO),
    {},
)(functools.partial(_round_robin, ZOO))


def models_scenario(
    specs: tuple[ModelSpec, ...] | str,
    frames: int = 64,
    offered_fps: float = 1000.0,
    seed: int = 0,
) -> Scenario:
    """Ad-hoc scenario: uniform arrivals round-robin over ``specs``.

    Backs the ``repro serve --models`` flag — pick any zoo subset without
    registering a scenario.  ``specs`` may be the CLI string form.  The
    result is not registered, so it cannot be re-timed.
    """
    if isinstance(specs, str):
        specs = parse_model_specs(specs)
    specs = tuple(specs)
    check_count("frames", frames)
    check_positive("offered_fps", offered_fps)
    entry = _Registration(
        "models",
        f"uniform round-robin over {', '.join(s.key for s in specs)}",
        functools.partial(_build_models, specs),
        {},
        functools.partial(_round_robin, specs),
    )
    return _generate(entry, entry.models(seed), frames, offered_fps, seed, None)


__all__ = [
    "DIURNAL_REGIONS",
    "MIXED_TENANT_CLASSES",
    "ZOO",
    "ModelSpec",
    "Scenario",
    "build_scenario",
    "models_scenario",
    "parse_model_specs",
    "register_scenario",
    "scenario_registry",
]
