"""Degraded-mode serving: per-node health, SNR watchdog, online recalibration.

The serving engine (:mod:`repro.engine.server`) historically assumed a
healthy die forever, while the repo's three degradation physics models —
:mod:`repro.sim.faults` (manufacturing/aging upsets),
:mod:`repro.core.thermal` (thermo-optic resonance drift) and
:mod:`repro.core.calibration` (per-die AWC pre-distortion) — were only
exercised by offline analysis.  This module wires them into the stream:

* :class:`FaultProfile` — a named degradation scenario (upset schedule,
  drift rate) attachable to a :class:`~repro.engine.server.FrameServer`
  via ``fault_profile=``; the watchdog cadence and the recalibration
  cost are the module constants :data:`CHECK_INTERVAL_S` and
  :data:`RECALIBRATION_LATENCY_S`;
* :class:`SnrWatchdog` — converts a node's monitored realized-weight error
  into an *equivalent resolvable bit count* and compares it against the
  architecture's weight precision, ceilinged by the optical link's ENOB
  from :class:`~repro.core.snr_budget.SnrBudget` (the paper's Section III
  "effective bit resolution" argument, made a runtime check);
* :class:`HealthMonitor` — advances every node's health state in simulated
  stream time: fires scheduled upsets, accumulates thermal drift against
  the EO fine-trim budget, trips the watchdog, and runs the
  online-recalibration path — the node goes busy for the recalibration
  latency, its :class:`~repro.engine.cache.WeightProgramCache` entries are
  invalidated, and the next ``activate`` re-runs the (deterministic)
  mapping chain so the recovered programs are **bit-identical** to the
  pre-fault cache entries;
* :class:`HealthReport` — degraded/recovered statistics in the same
  counters-over-events shape as :class:`~repro.sim.stream.StreamReport`.

Determinism contract: every stochastic draw (upset patterns) comes from
``derive_rng`` streams keyed by (server seed, node, upset index, model), so
a fixed seed reproduces the same degraded outputs frame-for-frame.  With
no serving layer configured (``fault_profile=None`` or ``"none"``, no
chaos or failover) no monitor is constructed and serving is bit-identical
to a server without this module.

Units: times in seconds of *simulated* stream time, temperatures in
kelvin, drift rates in K/s.  The named profiles use accelerated timescales
(upsets/drift within tens of milliseconds) so serving-scale demos and
benches exercise the full degrade → detect → recalibrate → recover cycle
in a few hundred frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import OISAConfig
from repro.core.snr_budget import SnrBudget
from repro.core.thermal import ThermalModel
from repro.photonics.microring import MicroringResonator
from repro.sim.faults import FaultSpec, FaultyOpticalCore
from repro.util.rng import derive_rng
from repro.util.validation import check_non_negative

#: Fraction of the EO-compensable thermal range at which the watchdog
#: forces a re-trim (a recalibration).
DRIFT_TRIP_FRACTION = 0.9
#: Minimum simulated time between watchdog samples on a node [s].  Checks
#: piggyback on frame arrivals, so detection latency is at most one check
#: interval plus one inter-arrival gap.
CHECK_INTERVAL_S = 2e-3
#: Simulated downtime of a recalibrating node [s] (AWC re-measurement +
#: remap); the scheduler routes frames around it meanwhile.
RECALIBRATION_LATENCY_S = 5e-3


@dataclass(frozen=True)
class FaultProfile:
    """One degradation scenario a serving stream can run under.

    Parameters
    ----------
    name:
        Display/CLI name.
    fault_spec:
        The fault rates drawn when an upset fires (see
        :class:`~repro.sim.faults.FaultSpec`).  Upsets are modeled as
        recoverable controller/program corruptions: a recalibration remap
        clears them.  A node lost for good is a chaos ``node-loss`` of
        infinite duration (:mod:`repro.engine.chaos`).
    fault_onset_s:
        Simulated time of the first upset on node 0; ``None`` disables
        upsets.  Node *i* sees its first upset at
        ``fault_onset_s + i * node_stagger_s``.
    fault_every_s:
        Repeat period for further upsets on a node (0 = one-shot).
    node_stagger_s:
        Per-node onset offset, so a fleet degrades gradually rather than
        synchronously.
    drift_k_per_s:
        Ambient thermal drift rate.  Within the EO fine-trim range the
        stabilisation loop compensates (no accuracy impact, per
        :class:`~repro.core.thermal.ThermalModel`); when the accumulated
        excursion reaches :data:`DRIFT_TRIP_FRACTION` of the compensable
        range the watchdog forces a thermal re-trim (a recalibration).
    calibrated:
        Serve through :class:`~repro.core.calibration.CalibratedAwcMapper`
        pre-distortion from the start, so recalibration re-runs the same
        calibrated chain (programs stay bit-identical across a recovery).
    """

    name: str = "custom"
    fault_spec: FaultSpec = field(default_factory=FaultSpec)
    fault_onset_s: float | None = None
    fault_every_s: float = 0.0
    node_stagger_s: float = 0.0
    drift_k_per_s: float = 0.0
    calibrated: bool = False

    def __post_init__(self) -> None:
        if self.fault_onset_s is not None:
            check_non_negative("fault_onset_s", self.fault_onset_s)
        check_non_negative("fault_every_s", self.fault_every_s)
        check_non_negative("node_stagger_s", self.node_stagger_s)
        check_non_negative("drift_k_per_s", self.drift_k_per_s)

    @property
    def active(self) -> bool:
        """Whether this profile can ever degrade a node."""
        return self.fault_onset_s is not None or self.drift_k_per_s > 0.0

    @staticmethod
    def named(name: str) -> "FaultProfile | None":
        """Look up a named profile (the CLI ``--fault-profile`` values).

        ``"none"`` returns ``None`` — the server then skips health
        monitoring entirely and serves bit-identically to a server built
        without a profile.
        """
        key = name.strip().lower()
        profiles = {
            "none": None,
            # Thermal-only: a fast ambient ramp that exhausts the EO trim
            # budget mid-stream and forces periodic re-trims.
            "drift": FaultProfile(
                name="drift",
                drift_k_per_s=8.0,
            ),
            # Upset-only: one recoverable program corruption per node,
            # staggered across the fleet.
            "transient": FaultProfile(
                name="transient",
                fault_spec=FaultSpec(dead_mr_rate=0.3, bpd_gain_sigma=0.15),
                fault_onset_s=0.03,
                node_stagger_s=0.015,
            ),
            # Both mechanisms plus calibrated serving — the full
            # degraded-mode scenario the bench measures.
            "harsh": FaultProfile(
                name="harsh",
                fault_spec=FaultSpec(
                    dead_mr_rate=0.3,
                    stuck_awc_branch_rate=0.1,
                    bpd_gain_sigma=0.2,
                ),
                fault_onset_s=0.03,
                fault_every_s=0.12,
                node_stagger_s=0.015,
                drift_k_per_s=4.0,
                calibrated=True,
            ),
        }
        if key not in profiles:
            raise ValueError(
                f"unknown fault profile {name!r}; known: "
                f"{', '.join(sorted(profiles))}"
            )
        return profiles[key]


@dataclass(frozen=True)
class HealthEvent:
    """One health transition on one node, in simulated stream time."""

    time_s: float
    node_id: int
    #: One of ``"upset"``, ``"watchdog-trip"``, ``"drift-trip"``,
    #: ``"recalibrated"``, or an injected ``"chaos-node-loss"``,
    #: ``"chaos-upset"``, ``"chaos-cache-storm"``, ``"chaos-latency-spike"``
    #: (node id -1 for fleet-wide spikes).
    kind: str
    #: Human-readable context (equivalent bits, drift excursion, ...);
    #: simulated state only, so never a host-cache count.
    detail: str = ""


@dataclass
class HealthReport:
    """Aggregate health statistics of one served stream.

    Shaped like :class:`~repro.sim.stream.StreamReport` — an event list
    plus derived counters — so stream-style reporting code can consume it.
    """

    profile: str
    events: list[HealthEvent] = field(default_factory=list)
    degraded_frames: int = 0
    healthy_frames: int = 0
    #: Extra mapping energy spent by recalibration remaps [J].
    recalibration_energy_j: float = 0.0
    #: Thermal compensation energy holding against the drift [J].
    compensation_energy_j: float = 0.0
    #: Peak ambient excursion any node saw [K].
    peak_drift_k: float = 0.0

    @property
    def upsets(self) -> int:
        """Fault onsets across the fleet (chaos-injected included)."""
        return sum(
            event.kind in ("upset", "chaos-upset") for event in self.events
        )

    @property
    def chaos_events(self) -> int:
        """Injected chaos events that fired (any ``chaos-*`` kind)."""
        return sum(
            event.kind.startswith("chaos-") for event in self.events
        )

    @property
    def recalibrations(self) -> int:
        """Completed recalibrations (upset recoveries + thermal re-trims)."""
        return sum(event.kind == "recalibrated" for event in self.events)

    @property
    def degraded_fraction(self) -> float:
        """Delivered frames computed on a degraded die, as a fraction."""
        total = self.degraded_frames + self.healthy_frames
        return self.degraded_frames / total if total else 0.0


class SnrWatchdog:
    """Equivalent-bit monitor against the architecture's precision demand.

    The optical chain resolves ``SnrBudget.report().effective_bits`` at
    best (shot/thermal noise floor); a degraded program adds a systematic
    realized-weight error on top.  An RMS weight error of half an LSB at
    *b* bits is ``2^-(b+1)`` of full scale, so the error converts to an
    equivalent resolvable bit count via ``-log2(2 * error) `` — the
    watchdog trips when ``min(optical ENOB, equivalent bits)`` falls below
    the configured weight precision.
    """

    def __init__(self, config: OISAConfig) -> None:
        self.config = config
        budget = SnrBudget(num_rings=config.mrs_per_arm)
        self._optical_bits = float(budget.report().effective_bits)

    @property
    def required_bits(self) -> float:
        """Bits the serving configuration must resolve."""
        return float(self.config.weight_bits)

    @property
    def optical_bits(self) -> float:
        """The healthy link's ENOB ceiling."""
        return self._optical_bits

    def equivalent_bits(self, weight_error_relative: float) -> float:
        """Resolvable bits given a relative realized-weight error."""
        if weight_error_relative <= 0.0:
            return self._optical_bits
        monitored = -math.log2(2.0 * weight_error_relative)
        return min(self._optical_bits, monitored)

    def trips(self, weight_error_relative: float) -> bool:
        """Whether the monitored error breaks the precision budget."""
        return self.equivalent_bits(weight_error_relative) < self.required_bits


class _NodeHealth:
    """Mutable health state of one node within one ``serve`` call."""

    def __init__(self, node_id: int, profile: FaultProfile) -> None:
        self.node_id = node_id
        self.upset_active = False
        self.upset_index = 0
        #: Model whose ProgrammedWeights record is physically installed on
        #: the node's OPC while ``node.programmed_model`` is None (a
        #: recalibration wipes the latter to force reactivation, but the
        #: stale record — and its tensor shape — stays installed until the
        #: compute phase reprograms).
        self.monitor_model: str | None = None
        self.recal_done_s: float | None = None
        #: Chaos loss window end: the node is unavailable until then and
        #: its health machinery (upsets, watchdog) is frozen meanwhile.
        self.lost_until = 0.0
        #: Drift reference: ambient excursion accumulates since this time.
        self.drift_anchor_s = 0.0
        self.last_check_s = -float("inf")
        if profile.fault_onset_s is None:
            self.next_onset_s: float | None = None
        else:
            self.next_onset_s = (
                profile.fault_onset_s + node_id * profile.node_stagger_s
            )


class HealthMonitor:
    """Samples drift/faults per node mid-stream and drives recalibration.

    One monitor instance covers one :meth:`FrameServer.serve` call (each
    call simulates a stream from t = 0); the shared program cache carries
    recalibration effects across calls, health state does not.
    """

    def __init__(
        self,
        profile: FaultProfile,
        config: OISAConfig,
        nodes,
        cache,
        seed: int | None,
        chaos=None,
    ) -> None:
        self.profile = profile
        self.config = config
        self.nodes = nodes
        self.cache = cache
        self.seed = seed
        #: Optional :class:`~repro.engine.chaos.ChaosTimeline` — injected
        #: fleet events fire inside :meth:`advance` ahead of the organic
        #: per-node state machine.
        self.chaos = chaos
        #: Scheduler hook ``(node, time_s, until_s)`` fired when a chaos
        #: loss takes a node out — the scheduler reaps its in-flight
        #: frames and consults the failover layer.
        self.on_node_lost = None
        self.watchdog = SnrWatchdog(config)
        self.thermal = ThermalModel(
            ring=MicroringResonator(config.microring), tuning=config.tuning
        )
        self.report = HealthReport(profile=profile.name)
        self._states = [_NodeHealth(node.node_id, profile) for node in nodes]
        #: Frozen fault wrappers per (node, upset index, model key), each
        #: paired with the ProgrammedWeights record it was frozen against
        #: so a post-recalibration reprogram triggers a (same-seed)
        #: refreeze on the fresh record.
        self._fault_cores: dict[tuple[int, int, str], tuple] = {}
        #: Per-(node, upset index) fault spec override for chaos-injected
        #: upsets (organic upsets use the profile's spec).
        self._upset_specs: dict[tuple[int, int], FaultSpec] = {}

    # ------------------------------------------------------------------
    # Stream-time state machine
    # ------------------------------------------------------------------
    def advance(self, now_s: float) -> None:
        """Process every health transition with event time <= ``now_s``.

        Chaos events fire first (they are *inputs* to the per-node state
        machines), then each node's organic drift/upset/watchdog walk.
        Warm spares attached mid-stream (node ids beyond the monitored
        prefix) are not chaos targets and carry no health state.
        """
        if self.chaos is not None:
            self._process_chaos(now_s)
        for node, state in zip(self.nodes, self._states):
            self._advance_node(node, state, now_s)

    def _process_chaos(self, now_s: float) -> None:
        """Fire every due chaos event from the resolved timeline."""
        for event in self.chaos.due(now_s):
            if event.kind in ("node-loss", "region-outage"):
                for node_id in event.node_ids:
                    self._chaos_lose_node(event, node_id)
            elif event.kind == "correlated-upset":
                for node_id in event.node_ids:
                    self._chaos_upset_node(event, node_id)
            elif event.kind == "cache-storm":
                for node_id in event.node_ids:
                    self._chaos_storm_node(event, node_id)
            elif event.kind == "latency-spike":
                self.report.events.append(
                    HealthEvent(
                        event.time_s,
                        -1,
                        "chaos-latency-spike",
                        f"service x{event.factor:g} for "
                        f"{event.duration_s * 1e3:.1f} ms ({event.detail})",
                    )
                )

    def _chaos_lose_node(self, event, node_id: int) -> None:
        node = self.nodes[node_id]
        state = self._states[node_id]
        until = event.end_s
        state.lost_until = max(state.lost_until, until)
        node.free_at = max(node.free_at, until)
        # A recalibration mid-flight cannot complete while the node is
        # gone; it resumes once the node is back.
        if state.recal_done_s is not None:
            state.recal_done_s = max(state.recal_done_s, until)
        self.report.events.append(
            HealthEvent(
                event.time_s,
                node_id,
                "chaos-node-loss",
                f"{event.kind} until {until * 1e3:.1f} ms ({event.detail})",
            )
        )
        if self.on_node_lost is not None:
            self.on_node_lost(node, event.time_s, until)

    def _chaos_upset_node(self, event, node_id: int) -> None:
        state = self._states[node_id]
        state.upset_index += 1
        state.upset_active = True
        self._upset_specs[(node_id, state.upset_index)] = event.fault_spec
        self.report.events.append(
            HealthEvent(
                event.time_s,
                node_id,
                "chaos-upset",
                f"correlated upset #{state.upset_index}: "
                f"{event.fault_spec!r} ({event.detail})",
            )
        )

    def _chaos_storm_node(self, event, node_id: int) -> None:
        node = self.nodes[node_id]
        state = self._states[node_id]
        self.cache.invalidate_die(node.opc.seed)
        state.monitor_model = node.programmed_model or state.monitor_model
        node.programmed_model = None
        # Simulated residency is gone too: the next frame per (node,
        # model) pays a full remap in stream time/energy.
        node.active_model = None
        self.report.events.append(
            HealthEvent(
                event.time_s, node_id, "chaos-cache-storm", event.detail
            )
        )

    def _advance_node(self, node, state: _NodeHealth, now_s: float) -> None:
        if now_s < state.lost_until:
            return  # chaos took the node out: health machinery is frozen
        # Complete a pending recalibration first: recovery precedes any
        # later upset in event order.
        if state.recal_done_s is not None and state.recal_done_s <= now_s:
            self._finish_recalibration(node, state)
        if state.recal_done_s is not None:
            return  # still recalibrating: upsets/checks wait for recovery
        # Fire scheduled upsets.
        while state.next_onset_s is not None and state.next_onset_s <= now_s:
            self._fire_upset(node, state)
        # Watchdog sampling, throttled to the check cadence.
        if now_s - state.last_check_s >= CHECK_INTERVAL_S:
            previous_check_s = state.last_check_s
            state.last_check_s = now_s
            self._check(node, state, now_s, previous_check_s)

    def _fire_upset(self, node, state: _NodeHealth) -> None:
        onset = state.next_onset_s
        state.upset_index += 1
        state.next_onset_s = (
            onset + self.profile.fault_every_s
            if self.profile.fault_every_s > 0
            else None
        )
        state.upset_active = True
        self.report.events.append(
            HealthEvent(
                onset,
                node.node_id,
                "upset",
                f"upset #{state.upset_index}: {self.profile.fault_spec!r}",
            )
        )

    def _check(
        self, node, state: _NodeHealth, now_s: float, previous_check_s: float
    ) -> None:
        """One watchdog sample: SNR budget + thermal margin."""
        drift_k = self.profile.drift_k_per_s * (now_s - state.drift_anchor_s)
        self.report.peak_drift_k = max(self.report.peak_drift_k, drift_k)
        if self.profile.drift_k_per_s > 0:
            # Energy to hold the rings against the current excursion over
            # the simulated time actually elapsed since the previous
            # sample (checks piggyback on arrivals, so the gap can exceed
            # the nominal cadence).
            elapsed = now_s - previous_check_s
            if math.isfinite(elapsed) and elapsed > 0:
                power = self.thermal.compensation_power_w(
                    max(drift_k, 1e-12), self.config.total_mrs
                )
                self.report.compensation_energy_j += power * elapsed
            limit = DRIFT_TRIP_FRACTION * self.thermal.compensable_range_k()
            if drift_k >= limit:
                self._start_recalibration(
                    node,
                    state,
                    now_s,
                    "drift-trip",
                    f"drift {drift_k:.3f} K >= {limit:.3f} K EO budget",
                )
                return
        # Monitor the kernel set whose record is physically installed on
        # the die: the host-side programmed model, or — right after a
        # recalibration wiped that — the model remembered at recal time
        # (the stale record stays installed until the compute phase), so
        # repeated upsets keep tripping and the error estimate always
        # matches the installed tensor.
        monitored_model = node.programmed_model or state.monitor_model
        if state.upset_active and monitored_model is not None:
            faulty = self.fault_core(node, monitored_model, state.upset_index)
            if faulty is not None:
                error = faulty.weight_error_relative
                bits = self.watchdog.equivalent_bits(error)
                if self.watchdog.trips(error):
                    self._start_recalibration(
                        node,
                        state,
                        now_s,
                        "watchdog-trip",
                        f"equivalent bits {bits:.2f} < required "
                        f"{self.watchdog.required_bits:.2f}",
                    )

    def _start_recalibration(
        self, node, state: _NodeHealth, now_s: float, kind: str, detail: str
    ) -> None:
        state.recal_done_s = max(node.free_at, now_s) + RECALIBRATION_LATENCY_S
        node.free_at = state.recal_done_s
        self.report.events.append(
            HealthEvent(now_s, node.node_id, kind, detail)
        )

    def _finish_recalibration(self, node, state: _NodeHealth) -> None:
        done = state.recal_done_s
        state.recal_done_s = None
        state.upset_active = False
        state.drift_anchor_s = done
        state.last_check_s = done
        # Stale programs: drop the die's cache entries and force the next
        # activate() through the (deterministic) mapping chain.  The remap
        # reproduces the pre-fault programs bit-identically.
        self.cache.invalidate_die(node.opc.seed)
        if node.opc.is_programmed:
            self.report.recalibration_energy_j += (
                node.opc.programmed.tuning.energy_j
            )
        state.monitor_model = node.programmed_model or state.monitor_model
        node.programmed_model = None
        # The remap also wipes the simulated kernel residency: the next
        # frame on this node pays a remap phase in stream time/energy.
        node.active_model = None
        self.report.events.append(
            HealthEvent(done, node.node_id, "recalibrated")
        )

    # ------------------------------------------------------------------
    # Queries the server makes
    # ------------------------------------------------------------------
    def degradation_tag(self, node) -> int:
        """0 when ``node`` is healthy, else the active upset's index.

        The server records this per admitted frame so the compute phase
        (which runs after the whole admission loop) reproduces exactly the
        degradation each frame saw at its arrival time.
        """
        if node.node_id >= len(self._states):
            return 0  # warm spare attached mid-stream: not monitored
        state = self._states[node.node_id]
        return state.upset_index if state.upset_active else 0

    def fault_core(
        self, node, model_key: str, upset_index: int
    ) -> FaultyOpticalCore | None:
        """The frozen fault wrapper for ``node`` serving ``model_key``.

        Patterns are drawn once per (node, upset, model) from a derived
        RNG stream, so degraded outputs are deterministic per server seed
        regardless of scheduling order.  Requires the node's OPC to be
        programmed with ``model_key``'s weights (the compute path activates
        first).
        """
        if upset_index <= 0 or not node.opc.is_programmed:
            return None
        key = (node.node_id, upset_index, model_key)
        cached = self._fault_cores.get(key)
        if cached is not None and cached[1] is node.opc.programmed:
            return cached[0]
        fault_seed = derive_rng(
            self.seed,
            f"health-upset-{node.node_id}-{upset_index}-{model_key}",
        ).integers(0, 2**63 - 1)
        spec = self._upset_specs.get(
            (node.node_id, upset_index), self.profile.fault_spec
        )
        core = FaultyOpticalCore.from_programmed(
            node.opc, spec, seed=int(fault_seed)
        )
        self._fault_cores[key] = (core, node.opc.programmed)
        return core

    def record_frame(self, degraded: bool) -> None:
        """Count one delivered frame toward the degraded/healthy split."""
        if degraded:
            self.report.degraded_frames += 1
        else:
            self.report.healthy_frames += 1

    def unavailable_fraction(self, now_s: float) -> float:
        """Fraction of the *monitored* fleet inside a chaos loss window.

        The brownout controller's capacity-loss signal; spares attached
        mid-stream count toward neither numerator nor denominator.
        """
        if not self._states:
            return 0.0
        down = sum(now_s < state.lost_until for state in self._states)
        return down / len(self._states)

    def latency_factor(self, now_s: float) -> float:
        """Active chaos latency-spike multiplier (1.0 outside windows)."""
        if self.chaos is None:
            return 1.0
        return self.chaos.latency_factor(now_s)


__all__ = [
    "CHECK_INTERVAL_S",
    "DRIFT_TRIP_FRACTION",
    "RECALIBRATION_LATENCY_S",
    "FaultProfile",
    "HealthEvent",
    "HealthMonitor",
    "HealthReport",
    "SnrWatchdog",
]
