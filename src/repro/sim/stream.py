"""Sustained video-stream simulation on one OISA node.

The paper quotes steady-state numbers (1000 FPS, per-frame energy with the
mapping amortised away).  This module simulates an actual frame stream —
including kernel swaps mid-stream, frames arriving faster than the budget,
and the resulting drop/latency statistics — which is what a deployment
study needs beyond single-frame arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import math

from repro.core.config import OISAConfig
from repro.core.controller import TimingController
from repro.core.energy import OISAEnergyModel
from repro.core.mapping import ConvWorkload, plan_convolution
from repro.util.validation import check_positive


def nearest_rank_percentile(values: list[float], fraction: float) -> float:
    """Deterministic nearest-rank percentile (no interpolation).

    ``fraction`` in (0, 1]; returns ``sorted(values)[ceil(fraction*n)-1]``.
    Pure-Python on purpose: the SLO accounting built on this must be
    bit-reproducible across NumPy versions.  NaN for an empty list.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(math.ceil(fraction * len(ordered)), 1)
    return ordered[rank - 1]


class StreamEvent(NamedTuple):
    """One frame's fate in the stream.

    A named tuple, not a dataclass: the serving engine builds one per
    offered frame, and a tuple is several times cheaper to construct.
    """

    index: int
    arrival_s: float
    start_s: float
    finish_s: float
    dropped: bool
    remapped: bool

    @property
    def latency_s(self) -> float:
        """Capture-to-features latency (NaN when dropped)."""
        return float("nan") if self.dropped else self.finish_s - self.arrival_s


@dataclass
class StreamReport:
    """Aggregate statistics of a simulated stream."""

    events: list[StreamEvent] = field(default_factory=list)
    total_energy_j: float = 0.0

    @property
    def frames(self) -> int:
        """Frames offered to the node."""
        return len(self.events)

    @property
    def dropped(self) -> int:
        """Frames dropped because the pipe was busy."""
        return sum(event.dropped for event in self.events)

    @property
    def drop_rate(self) -> float:
        """Fraction of offered frames dropped."""
        return self.dropped / self.frames if self.frames else 0.0

    @property
    def mean_latency_s(self) -> float:
        """Mean capture-to-features latency over delivered frames."""
        latencies = [e.latency_s for e in self.events if not e.dropped]
        return sum(latencies) / len(latencies) if latencies else float("nan")

    def latency_percentile(self, fraction: float) -> float:
        """Nearest-rank latency percentile over delivered frames [s]."""
        latencies = [e.latency_s for e in self.events if not e.dropped]
        return nearest_rank_percentile(latencies, fraction)

    @property
    def p99_latency_s(self) -> float:
        """99th-percentile capture-to-features latency [s]."""
        return self.latency_percentile(0.99)

    def deadline_hit_rate(self, deadline_s: float) -> float:
        """Fraction of *offered* frames delivered within ``deadline_s``.

        Drops count as misses — the quantity an SLO attainment report
        cares about (see :mod:`repro.engine.admission` for the per-class
        version).
        """
        check_positive("deadline_s", deadline_s)
        if not self.events:
            return 0.0
        hits = sum(
            1
            for e in self.events
            if not e.dropped and e.latency_s <= deadline_s + 1e-12
        )
        return hits / len(self.events)

    @property
    def sustained_fps(self) -> float:
        """Delivered frames per second of simulated time."""
        if not self.events:
            return 0.0
        span = self.events[-1].finish_s - self.events[0].arrival_s
        delivered = self.frames - self.dropped
        return delivered / span if span > 0 else 0.0

    @property
    def average_power_w(self) -> float:
        """Energy over the simulated span."""
        if not self.events:
            return 0.0
        span = self.events[-1].finish_s - self.events[0].arrival_s
        return self.total_energy_j / span if span > 0 else 0.0


class StreamSimulator:
    """Event-driven single-node stream simulation.

    Frames arrive at ``offered_fps``; each occupies the pipeline for the
    plan's exposure-overlapped service time.  A frame arriving while the
    pipe is busy is dropped (global shutter sensors cannot queue light).
    Every ``remap_every`` frames the controller reloads a new kernel set
    and pays the mapping phase (``remap_every = 0`` disables swaps).
    """

    def __init__(self, config: OISAConfig | None = None) -> None:
        self.config = config or OISAConfig()
        self.controller = TimingController(self.config)
        self.energy_model = OISAEnergyModel(self.config)

    def run(
        self,
        workload: ConvWorkload,
        num_frames: int,
        offered_fps: float,
        remap_every: int = 0,
        tuning_latency_s: float = 4e-6,
    ) -> StreamReport:
        """Simulate ``num_frames`` arrivals at ``offered_fps``."""
        check_positive("num_frames", num_frames)
        check_positive("offered_fps", offered_fps)
        if remap_every < 0:
            raise ValueError(f"remap_every must be >= 0, got {remap_every}")

        plan = plan_convolution(self.config, workload)
        steady = self.controller.frame_timing(plan)
        remap = self.controller.frame_timing(
            plan, remap_weights=True, tuning_latency_s=tuning_latency_s
        )
        steady_energy = self.energy_model.frame_energy_j(plan).total
        remap_energy = self.energy_model.frame_energy_j(
            plan, include_mapping=True
        ).total

        interval = 1.0 / offered_fps
        report = StreamReport()
        pipe_free_at = 0.0
        for index in range(num_frames):
            arrival = index * interval
            remapped = remap_every > 0 and index % remap_every == 0
            timing = remap if remapped else steady
            if arrival < pipe_free_at - 1e-12:  # tolerance for FP accumulation
                report.events.append(
                    StreamEvent(index, arrival, arrival, arrival, True, remapped)
                )
                continue
            service = timing.pipelined_s
            start = arrival
            finish = start + timing.sequential_s
            pipe_free_at = start + service
            report.events.append(
                StreamEvent(index, arrival, start, finish, False, remapped)
            )
            report.total_energy_j += remap_energy if remapped else steady_energy
        return report

    def max_sustainable_fps(self, workload: ConvWorkload) -> float:
        """Highest drop-free offered rate for a steady kernel set."""
        plan = plan_convolution(self.config, workload)
        timing = self.controller.frame_timing(plan)
        return 1.0 / timing.pipelined_s
