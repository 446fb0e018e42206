"""Deterministic fleet-scale fault injection above the health monitor.

:mod:`repro.engine.health` models *organic* degradation — per-node drift
and scheduled upsets drawn from a :class:`~repro.engine.health.FaultProfile`.
This module injects *adversarial* fleet events on top: the correlated,
bursty failures a distributed in-sensor deployment actually sees (OASIS's
"many sensors, shared downstream capacity" regime, PAPERS.md).  A
:class:`ChaosPlan` names a set of :class:`ChaosSpec` entries; resolving the
plan against a fleet size and a seed yields a concrete, sorted
:class:`ChaosEvent` timeline that the :class:`~repro.engine.health.
HealthMonitor` replays in simulated stream time:

* ``node-loss`` / ``region-outage`` — the affected nodes go unavailable
  for a window (``free_at`` pushed to the window end); in-flight frames on
  them are reaped by the scheduler and routed through the
  :class:`~repro.engine.failover.RetryPolicy` (or dropped as *lost*);
* ``correlated-upset`` — a multi-node program corruption carrying its own
  :class:`~repro.sim.faults.FaultSpec`, detected and recovered by the
  existing watchdog → recalibration → bit-identical remap cycle;
* ``cache-storm`` — the affected dies' cached programs are invalidated
  and their kernel residency wiped, so the next frame per (node, model)
  pays a full remap (deterministic, bit-identical reprogram);
* ``latency-spike`` — a multiplicative dispatch service-time factor over
  a window (congested readout/link), applied at dispatch time.

Determinism contract: every stochastic choice (onset jitter, which nodes
an event hits) comes from ``derive_rng(seed, "chaos-<plan>-<spec>-<rep>")``
streams, so a fixed (plan, fleet size, seed) triple resolves to the same
timeline — and, via the scheduler's determinism contract, the same
``ServeReport`` — frame-for-frame.  With ``chaos_plan=None`` the server
constructs no timeline and serving is byte-identical to a server without
this module.

Units: event times and durations in *simulated* seconds (the
``StreamEvent`` clock), matched to the accelerated serving-demo
timescales of :mod:`repro.engine.health` (events within tens of
milliseconds so a few-hundred-frame stream crosses the full
fail → recover arc).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.faults import FaultSpec
from repro.util.rng import derive_rng
from repro.util.validation import (
    check_count,
    check_non_negative,
    check_positive,
)

#: Event kinds a plan may schedule (see module docstring for semantics).
CHAOS_KINDS = (
    "node-loss",
    "region-outage",
    "correlated-upset",
    "cache-storm",
    "latency-spike",
)


@dataclass(frozen=True)
class ChaosSpec:
    """One symbolic chaos entry, resolved per fleet size + seed.

    Parameters
    ----------
    kind:
        One of :data:`CHAOS_KINDS`.
    at_s:
        Nominal onset [s] on the simulated stream clock.
    duration_s:
        Window length [s] for windowed kinds (loss/outage/spike); ignored
        by instantaneous kinds (upset, cache-storm).
    count:
        Nodes hit (loss/upset/storm); ``0`` means the whole fleet.
    fraction:
        Fleet fraction hit — overrides ``count`` when set (the
        region-outage sizing knob).
    factor:
        Service-time multiplier of a ``latency-spike``.
    jitter_s:
        Uniform onset jitter drawn from the spec's derived RNG stream.
    fault_spec:
        Fault rates a ``correlated-upset`` corrupts programs with.
    repeats / every_s:
        Fire ``repeats`` times, ``every_s`` apart (storm trains).
    """

    kind: str
    at_s: float
    duration_s: float = 0.0
    count: int = 1
    fraction: float | None = None
    factor: float = 1.0
    jitter_s: float = 0.0
    fault_spec: FaultSpec = field(default_factory=FaultSpec)
    repeats: int = 1
    every_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(
                f"unknown chaos kind {self.kind!r}; known: "
                f"{', '.join(CHAOS_KINDS)}"
            )
        check_non_negative("at_s", self.at_s)
        check_non_negative("duration_s", self.duration_s)
        check_non_negative("jitter_s", self.jitter_s)
        check_non_negative("every_s", self.every_s)
        check_count("count", self.count, minimum=0)
        check_count("repeats", self.repeats)
        check_positive("factor", self.factor)
        if self.fraction is not None and not 0.0 < self.fraction <= 1.0:
            raise ValueError(
                f"fraction must be in (0, 1], got {self.fraction}"
            )
        if self.kind in ("node-loss", "region-outage", "latency-spike"):
            check_positive("duration_s", self.duration_s)


@dataclass(frozen=True)
class ChaosEvent:
    """One concrete scheduled event on the resolved timeline."""

    time_s: float
    kind: str
    #: Affected node ids (empty for fleet-wide latency spikes).
    node_ids: tuple[int, ...]
    duration_s: float = 0.0
    factor: float = 1.0
    fault_spec: FaultSpec | None = None
    #: Provenance: ``"<plan>[<spec idx>]#<repeat>"``.
    detail: str = ""

    @property
    def end_s(self) -> float:
        """Window end on the stream clock (= onset for point events)."""
        return self.time_s + self.duration_s


@dataclass(frozen=True)
class ChaosPlan:
    """A named set of chaos specs, resolvable to a deterministic timeline."""

    name: str = "custom"
    specs: tuple[ChaosSpec, ...] = ()

    def schedule(
        self, num_nodes: int, seed: int | None
    ) -> tuple[ChaosEvent, ...]:
        """Resolve to concrete events for ``num_nodes``, sorted by onset.

        Every draw comes from ``derive_rng(seed,
        f"chaos-{name}-{spec}-{repeat}")`` so the timeline is a pure
        function of (plan, fleet size, seed).
        """
        check_positive("num_nodes", num_nodes)
        events: list[ChaosEvent] = []
        for spec_index, spec in enumerate(self.specs):
            for repeat in range(spec.repeats):
                rng = derive_rng(
                    seed, f"chaos-{self.name}-{spec_index}-{repeat}"
                )
                onset = spec.at_s + repeat * spec.every_s
                if spec.jitter_s > 0.0:
                    onset += float(rng.uniform(0.0, spec.jitter_s))
                if spec.fraction is not None:
                    hit = max(1, int(round(spec.fraction * num_nodes)))
                elif spec.count == 0:
                    hit = num_nodes
                else:
                    hit = min(spec.count, num_nodes)
                if spec.kind == "latency-spike":
                    nodes: tuple[int, ...] = ()
                else:
                    nodes = tuple(
                        int(i)
                        for i in sorted(
                            rng.choice(num_nodes, size=hit, replace=False)
                        )
                    )
                events.append(
                    ChaosEvent(
                        time_s=onset,
                        kind=spec.kind,
                        node_ids=nodes,
                        duration_s=spec.duration_s,
                        factor=spec.factor,
                        fault_spec=(
                            spec.fault_spec
                            if spec.kind == "correlated-upset"
                            else None
                        ),
                        detail=f"{self.name}[{spec_index}]#{repeat}",
                    )
                )
        events.sort(key=lambda event: (event.time_s, event.kind, event.node_ids))
        return tuple(events)

    @staticmethod
    def named(name: str) -> "ChaosPlan | None":
        """Look up a named plan (the CLI ``--chaos-plan`` values).

        ``"none"`` returns ``None`` — the server then builds no chaos
        timeline and serves byte-identically to a server without the
        argument.  Onsets sit in the 20-50 ms band so the accelerated
        serving-demo streams (a few hundred frames at ~1-3 kFPS) cross
        the full fail → recover arc.
        """
        key = name.strip().lower()
        plans = {
            "none": None,
            # One node drops out mid-stream for a long window — the
            # failover bench's plan: without retry+spares its in-flight
            # and queued frames burn deadlines.
            "node-loss": ChaosPlan(
                name="node-loss",
                specs=(
                    ChaosSpec(kind="node-loss", at_s=0.03, duration_s=0.08),
                ),
            ),
            # Half the fleet (>= 1 node) vanishes at once — the
            # region-style grouped outage.
            "region-outage": ChaosPlan(
                name="region-outage",
                specs=(
                    ChaosSpec(
                        kind="region-outage",
                        at_s=0.04,
                        duration_s=0.05,
                        fraction=0.5,
                    ),
                ),
            ),
            # Every node's program corrupts in the same instant; the
            # watchdogs trip and the fleet recalibrates in waves.
            "correlated-upsets": ChaosPlan(
                name="correlated-upsets",
                specs=(
                    ChaosSpec(
                        kind="correlated-upset",
                        at_s=0.03,
                        count=0,
                        fault_spec=FaultSpec(
                            dead_mr_rate=0.3, bpd_gain_sigma=0.15
                        ),
                    ),
                ),
            ),
            # A train of fleet-wide cache invalidations: every wave forces
            # a full (deterministic) remap per (node, model).
            "cache-storm": ChaosPlan(
                name="cache-storm",
                specs=(
                    ChaosSpec(
                        kind="cache-storm",
                        at_s=0.02,
                        count=0,
                        repeats=3,
                        every_s=0.04,
                    ),
                ),
            ),
            # Congested readout/link: dispatch service times triple for a
            # window.
            "latency-spike": ChaosPlan(
                name="latency-spike",
                specs=(
                    ChaosSpec(
                        kind="latency-spike",
                        at_s=0.03,
                        duration_s=0.04,
                        factor=3.0,
                    ),
                ),
            ),
            # The kitchen sink: staggered loss + a storm + a spike, with
            # jittered onsets — the "everything at once" drill.
            "rolling": ChaosPlan(
                name="rolling",
                specs=(
                    ChaosSpec(
                        kind="node-loss",
                        at_s=0.02,
                        duration_s=0.04,
                        jitter_s=0.01,
                    ),
                    ChaosSpec(
                        kind="cache-storm", at_s=0.05, count=0, jitter_s=0.01
                    ),
                    ChaosSpec(
                        kind="latency-spike",
                        at_s=0.08,
                        duration_s=0.03,
                        factor=2.0,
                    ),
                ),
            ),
        }
        if key not in plans:
            raise ValueError(
                f"unknown chaos plan {name!r}; known: "
                f"{', '.join(sorted(plans))}"
            )
        return plans[key]


class ChaosTimeline:
    """One serve call's resolved chaos schedule + firing cursor.

    The :class:`~repro.engine.health.HealthMonitor` owns one timeline per
    ``serve`` call and fires due events from :meth:`due` inside its
    ``advance`` walk; :meth:`latency_factor` is queried at dispatch time
    and needs no firing order (it scans the static window list).
    """

    def __init__(
        self, plan: ChaosPlan, num_nodes: int, seed: int | None
    ) -> None:
        self.plan = plan
        self.events = plan.schedule(num_nodes, seed)
        self._cursor = 0

    def due(self, now_s: float) -> list[ChaosEvent]:
        """Events with onset <= ``now_s`` not yet fired, in onset order."""
        fired: list[ChaosEvent] = []
        while (
            self._cursor < len(self.events)
            and self.events[self._cursor].time_s <= now_s
        ):
            fired.append(self.events[self._cursor])
            self._cursor += 1
        return fired

    def latency_factor(self, now_s: float) -> float:
        """Product of active latency-spike factors at ``now_s``."""
        factor = 1.0
        for event in self.events:
            if (
                event.kind == "latency-spike"
                and event.time_s <= now_s < event.end_s
            ):
                factor *= event.factor
        return factor


__all__ = [
    "CHAOS_KINDS",
    "ChaosEvent",
    "ChaosPlan",
    "ChaosSpec",
    "ChaosTimeline",
]
