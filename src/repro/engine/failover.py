"""Failover: deadline-aware retry, warm spares, brownout degradation tiers.

:mod:`repro.engine.chaos` makes fleet-scale failure injectable; this
module makes the serving stack *survive* it.  Three mechanisms, all
deterministic in simulated stream time:

* :class:`RetryPolicy` — when a node trips mid-run, its in-flight frames
  are re-dispatched: a hedged first retry after a short detection delay,
  then exponential backoff with jitter from ``derive_rng`` streams.
  Deadline-aware (a retry that cannot finish before the frame's absolute
  deadline is abandoned immediately instead of wasting capacity) with
  per-class retry budgets so best-effort retries can never starve
  interactive traffic.
* :class:`FailoverCoordinator` — warm-standby spares: a spare activates
  against the *failed node's die seed*, so every program the primary
  warmed via :meth:`FrameServer.warmup` is a cache **hit** on the spare
  and the installed programs are bit-identical to the primary's (the
  cache key includes the die seed — same die, same realized weights).
* :class:`BrownoutController` — admission steps through explicit
  degradation tiers under sustained overload or capacity loss: *normal* →
  *shed best-effort* → *tighten ``max_queue_s``* → *serve at reduced
  weight bits* → *reject*, with hysteresis (exit thresholds below entry,
  minimum dwell) and a full :class:`BrownoutTransition` audit trail in
  ``ServeReport.brownout``.  The reduced-bits tier serves through real
  reduced-precision model variants, so its latency/energy books are the
  honest reduced-bit numbers (CamJ-style end-to-end accounting).

Honest accounting: a frame killed in flight keeps its already-spent
dispatch energy in ``total_energy_j`` (the work happened) and the waste is
itemised in :class:`ResilienceReport.wasted_energy_j`; retries pay the
full dispatch cost again.

Default-path contract: with none of these, no fault profile and no
chaos plan the server serves through the plain
:class:`~repro.engine.scheduler.ServeLayers` and builds no coordinator.

Units: all times in *simulated* seconds, energies in joules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.engine.scheduler import ServeLayers
from repro.util.rng import derive_rng
from repro.util.validation import check_count, check_positive, registry_key

#: Brownout tier names, by level (index = tier).
BROWNOUT_TIERS = (
    "normal",
    "shed-best-effort",
    "tighten-queue",
    "reduced-bits",
    "reject",
)


# ----------------------------------------------------------------------
# Retry
# ----------------------------------------------------------------------
#: Time to notice a tripped node [s]: the hedged first retry fires
#: after just this delay, and every later retry waits it on top of its
#: backoff step.
RETRY_DETECTION_DELAY_S = 2e-4
#: Growth of the backoff step from one retry to the next.
RETRY_BACKOFF_FACTOR = 2.0
#: Uniform ±fraction applied to each backoff step.
RETRY_JITTER_FRAC = 0.25


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline-aware retry with exponential backoff + derived jitter.

    The first retry is hedged: it fires :data:`RETRY_DETECTION_DELAY_S`
    after the failure.  Retry *k* >= 2 waits that delay plus
    ``backoff_base_s * RETRY_BACKOFF_FACTOR**(k-2)``, scaled by a uniform
    ±:data:`RETRY_JITTER_FRAC` draw from
    ``derive_rng(seed, "retry-<frame>-<attempt>")`` — deterministic per
    (seed, frame, attempt).

    Parameters
    ----------
    name:
        Display/CLI name.
    max_retries:
        Re-dispatch attempts per frame after its first dispatch.
    backoff_base_s:
        The first backoff step (retry 2).
    class_budget_frac:
        Per-SLO-class retry budget as a fraction of the class's offered
        frames so far (floor of one retry).  Best-effort retry storms
        therefore cannot starve interactive capacity.
    """

    name: str = "deadline"
    max_retries: int = 3
    backoff_base_s: float = 5e-4
    class_budget_frac: float = 0.5

    def __post_init__(self) -> None:
        check_count("max_retries", self.max_retries)
        check_positive("backoff_base_s", self.backoff_base_s)
        check_positive("class_budget_frac", self.class_budget_frac)

    def delay_s(self, index: int, attempt: int, seed: int | None) -> float:
        """Delay before retry ``attempt`` (1-based) of frame ``index``.

        Deterministic: the jitter draw comes from a stream keyed by
        (seed, frame index, attempt), independent of scheduling order.
        """
        if attempt <= 1:
            return RETRY_DETECTION_DELAY_S
        delay = self.backoff_base_s * RETRY_BACKOFF_FACTOR ** (attempt - 2)
        rng = derive_rng(seed, f"retry-{index}-{attempt}")
        delay *= 1.0 + RETRY_JITTER_FRAC * float(rng.uniform(-1.0, 1.0))
        return RETRY_DETECTION_DELAY_S + delay

    @staticmethod
    def named(name: str) -> "RetryPolicy | None":
        """The :data:`RETRY_POLICIES` entry ``name`` spells."""
        return RETRY_POLICIES[
            registry_key("retry policy", name, RETRY_POLICIES)
        ]


#: Named retry policies by lower-case key: the ``--retry-policy`` values.
RETRY_POLICIES: dict[str, RetryPolicy | None] = {
    "none": None,
    "deadline": RetryPolicy(),
    # More attempts, tighter backoff, full class budgets — for
    # drills where losing frames is worse than wasting capacity.
    "aggressive": RetryPolicy(
        name="aggressive",
        max_retries=5,
        backoff_base_s=2.5e-4,
        class_budget_frac=1.0,
    ),
}


# ----------------------------------------------------------------------
# Spares
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SpareActivation:
    """One warm-standby activation on the audit trail."""

    time_s: float
    #: Node id the spare joined the fleet as.
    spare_id: int
    #: Failed node the spare covers (and whose die seed it adopts).
    covering_node: int
    #: Stream time the spare starts taking frames.
    ready_s: float


#: Power-up + attach latency before a warm spare takes its first frame
#: [s].  Pre-warmed programs make the *programming* free (cache hits);
#: this is the remaining bring-up cost.
SPARE_ACTIVATION_LATENCY_S = 2e-3


# ----------------------------------------------------------------------
# Brownout
# ----------------------------------------------------------------------
# The ladder's load signal is ``wait_estimate / BROWNOUT_PRESSURE_REF_S
# + BROWNOUT_CAPACITY_WEIGHT * unavailable_fraction``: one unitless value
# combining queueing delay and capacity loss.  Tier *k* (1-based) is
# entered when it holds above ``BROWNOUT_ENTER_PRESSURE[k-1]`` for
# ``BROWNOUT_DWELL_S`` and exited when it holds below that bar times
# ``BROWNOUT_EXIT_FRACTION`` for ``BROWNOUT_DWELL_S`` (hysteresis: the
# exit bar is strictly lower than the entry bar).
BROWNOUT_ENTER_PRESSURE = (1.0, 2.5, 5.0, 10.0)
BROWNOUT_EXIT_FRACTION = 0.5
BROWNOUT_DWELL_S = 2e-3
BROWNOUT_PRESSURE_REF_S = 5e-3
BROWNOUT_CAPACITY_WEIGHT = 4.0
#: Tier 1+ sheds classes at priority <= this.
BROWNOUT_SHED_PRIORITY_MAX = 0
#: Tier 2+ multiplies each class's ``max_queue_s`` by this...
BROWNOUT_QUEUE_TIGHTEN_FACTOR = 0.5
#: ...and imposes this bound [s] on classes that had none.
BROWNOUT_IMPOSED_QUEUE_S = 0.01
#: Tier 3+ serves through variants quantized to at most this many bits.
BROWNOUT_REDUCED_BITS = 2


#: The ``--brownout`` names: ``"standard"`` runs the ladder, ``"none"``
#: keeps admission tier-free.
BROWNOUT_CONFIGS = ("none", "standard")


def brownout_enabled(name: str | None) -> bool:
    """Whether the :data:`BROWNOUT_CONFIGS` name ``name`` (or ``None``,
    tier-free) turns the ladder on."""
    if name is None:
        return False
    key = registry_key("brownout config", name, BROWNOUT_CONFIGS)
    return key == "standard"


@dataclass(frozen=True)
class BrownoutTransition:
    """One tier change on the audit trail."""

    time_s: float
    from_tier: int
    to_tier: int
    #: The pressure signal at the transition instant.
    pressure: float
    reason: str

    @property
    def to_name(self) -> str:
        return BROWNOUT_TIERS[self.to_tier]


@dataclass
class BrownoutReport:
    """Tier history + per-tier admission counts of one served stream."""

    transitions: list[BrownoutTransition] = field(default_factory=list)
    #: Arrivals observed while each tier was active (index = tier).
    frames_by_tier: list[int] = field(
        default_factory=lambda: [0] * len(BROWNOUT_TIERS)
    )
    peak_tier: int = 0
    #: Arrivals shed *by brownout* (tier sheds + tightened-queue sheds),
    #: a subset of the stream's shed count.
    shed_frames: int = 0
    #: Frames served through a reduced-bits variant.
    reduced_bits_frames: int = 0

    @property
    def peak_tier_name(self) -> str:
        return BROWNOUT_TIERS[self.peak_tier]


class BrownoutController:
    """Steps admission through degradation tiers with hysteresis.

    One controller covers one ``serve`` call (tier state restarts with
    the stream clock).  :meth:`observe` is called once per arrival with
    the scheduler's wait estimate and the monitor's unavailable fraction;
    the effect queries (:meth:`admits`, :meth:`effective_max_queue_s`,
    :meth:`wants_reduced_bits`) then shape that arrival's admission.
    Escalation moves one tier per dwell window so the audit trail shows
    every rung of the ladder.
    """

    def __init__(self) -> None:
        self.tier = 0
        self.report = BrownoutReport()
        self._above_since: float | None = None
        self._below_since: float | None = None

    # -- signal ---------------------------------------------------------
    def pressure(self, wait_s: float, unavailable_fraction: float) -> float:
        """The combined load signal (unitless)."""
        bounded_wait = (
            wait_s
            if math.isfinite(wait_s)
            # Every node lost for good: saturate well past the top bar.
            else 2.0 * BROWNOUT_ENTER_PRESSURE[-1] * BROWNOUT_PRESSURE_REF_S
        )
        return (
            bounded_wait / BROWNOUT_PRESSURE_REF_S
            + BROWNOUT_CAPACITY_WEIGHT * unavailable_fraction
        )

    def observe(
        self, now_s: float, wait_s: float, unavailable_fraction: float
    ) -> int:
        """Advance the tier state machine; returns the active tier."""
        pressure = self.pressure(wait_s, unavailable_fraction)
        if self.tier < len(BROWNOUT_TIERS) - 1 and (
            pressure >= BROWNOUT_ENTER_PRESSURE[self.tier]
        ):
            self._below_since = None
            if self._above_since is None:
                self._above_since = now_s
            if now_s - self._above_since >= BROWNOUT_DWELL_S:
                self._step(now_s, self.tier + 1, pressure, "pressure above entry bar")
                self._above_since = now_s
        elif self.tier > 0 and (
            pressure
            <= BROWNOUT_ENTER_PRESSURE[self.tier - 1] * BROWNOUT_EXIT_FRACTION
        ):
            self._above_since = None
            if self._below_since is None:
                self._below_since = now_s
            if now_s - self._below_since >= BROWNOUT_DWELL_S:
                self._step(now_s, self.tier - 1, pressure, "pressure below exit bar")
                self._below_since = now_s
        else:
            self._above_since = None
            self._below_since = None
        self.report.frames_by_tier[self.tier] += 1
        return self.tier

    def _step(
        self, now_s: float, to_tier: int, pressure: float, reason: str
    ) -> None:
        self.report.transitions.append(
            BrownoutTransition(now_s, self.tier, to_tier, pressure, reason)
        )
        self.tier = to_tier
        self.report.peak_tier = max(self.report.peak_tier, to_tier)

    # -- effects --------------------------------------------------------
    def admits(self, slo) -> bool:
        """Whether the active tier admits an arrival of class ``slo``."""
        if self.tier >= len(BROWNOUT_TIERS) - 1:
            return False  # reject tier: nothing gets in
        if self.tier >= 1 and slo.priority <= BROWNOUT_SHED_PRIORITY_MAX:
            return False
        return True

    def effective_max_queue_s(self, slo) -> float | None:
        """The class's backpressure bound under the active tier."""
        if self.tier < 2:
            return slo.max_queue_s
        if slo.max_queue_s is None:
            return BROWNOUT_IMPOSED_QUEUE_S
        return min(
            slo.max_queue_s * BROWNOUT_QUEUE_TIGHTEN_FACTOR,
            BROWNOUT_IMPOSED_QUEUE_S,
        )

    @property
    def wants_reduced_bits(self) -> bool:
        """Whether the active tier serves through reduced-bits variants."""
        return self.tier >= 3


# ----------------------------------------------------------------------
# Resilience accounting + coordinator
# ----------------------------------------------------------------------
@dataclass
class ResilienceReport:
    """Retry/spare outcomes of one served stream."""

    retry_policy: str
    spares_configured: int = 0
    #: In-flight frames killed by a node loss.
    frames_lost_in_flight: int = 0
    #: Lost/retried frames never delivered (budget, deadline or attempts
    #: exhausted) — the stream's ``lost`` drop category.
    frames_abandoned: int = 0
    #: Lost frames ultimately delivered through a retry.
    frames_recovered: int = 0
    retries_scheduled: int = 0
    #: Retry dispatches that reached a node (incl. via a queue).
    retries_dispatched: int = 0
    #: Retries refused by the per-class budget.
    retry_budget_denials: int = 0
    #: Energy already spent on killed in-flight dispatches [J] — kept in
    #: ``total_energy_j`` (the work happened) and itemised here.
    wasted_energy_j: float = 0.0
    spare_activations: list[SpareActivation] = field(default_factory=list)

    @property
    def spares_activated(self) -> int:
        return len(self.spare_activations)

    @property
    def recovery_ratio(self) -> float:
        """Recovered over lost in-flight frames (1.0 when nothing lost)."""
        if self.frames_lost_in_flight == 0:
            return 1.0
        return self.frames_recovered / self.frames_lost_in_flight


class FailoverCoordinator(ServeLayers):
    """One serve call's layered path behind the
    :class:`~repro.engine.scheduler.ServeLayers` seam: the health monitor
    (and its chaos timeline), retry, spares and brownout.

    Parameters
    ----------
    monitor:
        The per-serve :class:`~repro.engine.health.HealthMonitor`; the
        serving hooks need it, the retry/spare/brownout calls do not.
    retry:
        The :class:`RetryPolicy` (``None`` disables retries).
    spares:
        Warm-standby spare count (0 disables spares).
    brownout:
        A fresh :class:`BrownoutController` (``None`` disables tiers).
    seed:
        Server seed — keys the retry jitter streams.
    spare_factory:
        ``(covering_node, ready_s) -> node`` callback the server provides
        to construct + attach a warm spare (the server owns node
        construction); ``None`` when spares are disabled.
    reduced_key:
        ``{model_key: reduced-variant key}`` mapping for the brownout
        reduced-bits tier (identity for keys without a variant).
    """

    tracks_in_flight = True

    def __init__(
        self,
        monitor=None,
        retry: RetryPolicy | None = None,
        spares: int = 0,
        brownout: BrownoutController | None = None,
        seed: int | None = 0,
        spare_factory=None,
        reduced_key: dict[str, str] | None = None,
    ) -> None:
        self.monitor = monitor
        self.retry = retry
        self.spares = spares
        self.brownout = brownout
        self.seed = seed
        self._spare_factory = spare_factory
        self._reduced_key = dict(reduced_key or {})
        self.report = ResilienceReport(
            retry_policy=retry.name if retry is not None else "none",
            spares_configured=spares,
        )
        self._offered_by_class: dict[str, int] = {}
        self._retries_by_class: dict[str, int] = {}
        #: Failed node ids already covered by a spare.
        self._covered: set[int] = set()

    # -- serving hooks (see ServeLayers) ---------------------------------
    def bind(self, on_node_lost) -> None:
        self.monitor.on_node_lost = on_node_lost

    def advance(self, now_s: float) -> None:
        self.monitor.advance(now_s)

    def admit(self, scheduler, now_s: float, item) -> bool:
        self.monitor.advance(now_s)
        slo = item.slo
        self.record_offered(slo.name)
        brownout = self.brownout
        if brownout is None:
            return super().admit(scheduler, now_s, item)
        wait = scheduler.wait_estimate(now_s, slo)
        brownout.observe(now_s, wait, self.monitor.unavailable_fraction(now_s))
        if not brownout.admits(slo):
            brownout.report.shed_frames += 1
            return False
        limit = brownout.effective_max_queue_s(slo)
        if limit is not None and wait > limit:
            if slo.max_queue_s is None or wait <= slo.max_queue_s:
                # Only the tightened bound sheds it — bill brownout.
                brownout.report.shed_frames += 1
            return False
        return True

    def dispatch(self, item, node, start_s: float) -> tuple[str, int, float]:
        key = item.model_key
        if self.brownout is not None and self.brownout.wants_reduced_bits:
            key = self._reduced_key.get(key, key)
            if key != item.model_key:
                self.brownout.report.reduced_bits_frames += 1
        if item.attempt > 0:
            self.report.retries_dispatched += 1
        tag = self.monitor.degradation_tag(node)
        self.monitor.record_frame(tag > 0)
        return key, tag, self.monitor.latency_factor(start_s)

    def finish(self, result, revoked: dict) -> None:
        report = self.report
        report.frames_lost_in_flight = len(revoked)
        report.wasted_energy_j = sum((j for _, j in revoked.values()), 0.0)
        report.frames_abandoned = len(result.lost)
        report.frames_recovered = sum(
            1
            for index in {index for index, _ in revoked.values()}
            if not result.placements[index][1].dropped
        )

    def fault_core(self, node, model_key: str, tag: int):
        return self.monitor.fault_core(node, model_key, tag)

    def report_fields(self) -> dict:
        """``health`` under a fault profile or chaos plan, ``resilience``
        (and ``brownout``) under retry, spares or brownout."""
        fields = {}
        if self.monitor.profile.active or self.monitor.chaos is not None:
            fields["health"] = self.monitor.report
        if (
            self.retry is not None
            or self.spares > 0
            or self.brownout is not None
        ):
            fields["resilience"] = self.report
        if self.brownout is not None:
            fields["brownout"] = self.brownout.report
        return fields

    # -- admission-side bookkeeping ------------------------------------
    def record_offered(self, class_name: str) -> None:
        """Count one arrival toward the class's retry budget base."""
        self._offered_by_class[class_name] = (
            self._offered_by_class.get(class_name, 0) + 1
        )

    # -- retry decisions ------------------------------------------------
    def _budget_allows(self, class_name: str) -> bool:
        if self.retry is None:
            return False
        offered = self._offered_by_class.get(class_name, 0)
        allowed = max(
            1, math.ceil(self.retry.class_budget_frac * offered)
        )
        return self._retries_by_class.get(class_name, 0) < allowed

    def schedule_retry(self, item, now_s: float, service_hint_s: float):
        """Retry time for a frame a node loss killed in flight at
        ``now_s`` (hedged first attempt) or a retry that found no free
        node (next backoff step), or ``None`` to abandon it.

        One gate for both: attempts, class budget, deadline feasibility.
        """
        attempt = item.attempt + 1
        if self.retry is None or attempt > self.retry.max_retries:
            return None
        if not self._budget_allows(item.slo.name):
            self.report.retry_budget_denials += 1
            return None
        retry_at = now_s + self.retry.delay_s(item.index, attempt, self.seed)
        if math.isfinite(item.deadline_s) and (
            retry_at + service_hint_s > item.deadline_s
        ):
            return None  # deadline-aware: cannot finish in time
        self._retries_by_class[item.slo.name] = (
            self._retries_by_class.get(item.slo.name, 0) + 1
        )
        self.report.retries_scheduled += 1
        return retry_at

    # -- spares ---------------------------------------------------------
    def request_spare(self, failed_node, now_s: float):
        """Activate a warm spare covering ``failed_node`` (or ``None``).

        The spare adopts the failed node's die seed, so every program the
        primary warmed is already in the shared cache under the spare's
        key — activation is pure cache hits and the installed programs
        are bit-identical to the primary's.
        """
        if (
            self._spare_factory is None
            or len(self._covered) >= self.spares
            or failed_node.node_id in self._covered
        ):
            return None
        self._covered.add(failed_node.node_id)
        ready_s = now_s + SPARE_ACTIVATION_LATENCY_S
        spare = self._spare_factory(failed_node, ready_s)
        self.report.spare_activations.append(
            SpareActivation(
                time_s=now_s,
                spare_id=spare.node_id,
                covering_node=failed_node.node_id,
                ready_s=ready_s,
            )
        )
        return spare


# ----------------------------------------------------------------------
# Report-level metrics (consumed by benches + robustness report)
# ----------------------------------------------------------------------
def availability(report) -> float:
    """Delivered over offered frames of one :class:`ServeReport`."""
    offered = report.stream.frames
    return report.delivered / offered if offered else 0.0


def recovery_time_s(report, model_keys=None) -> float | None:
    """Stream time from the first chaos loss onset until the first
    post-onset arrival is delivered.

    ``None`` when the report saw no loss events; ``inf`` when nothing
    arriving after the onset was ever delivered.  Restrict to
    ``model_keys`` to measure one class (e.g. interactive only).
    """
    health = getattr(report, "health", None)
    if health is None:
        return None
    onsets = [
        event.time_s
        for event in health.events
        if event.kind == "chaos-node-loss"
    ]
    if not onsets:
        return None
    onset = min(onsets)
    finishes = [
        response.event.finish_s
        for response in report.responses
        if not response.dropped
        and response.event.arrival_s >= onset
        and (model_keys is None or response.model_key in model_keys)
    ]
    return min(finishes) - onset if finishes else math.inf


__all__ = [
    "BROWNOUT_CAPACITY_WEIGHT",
    "BROWNOUT_CONFIGS",
    "BROWNOUT_DWELL_S",
    "BROWNOUT_ENTER_PRESSURE",
    "BROWNOUT_EXIT_FRACTION",
    "BROWNOUT_IMPOSED_QUEUE_S",
    "BROWNOUT_PRESSURE_REF_S",
    "BROWNOUT_QUEUE_TIGHTEN_FACTOR",
    "BROWNOUT_REDUCED_BITS",
    "BROWNOUT_SHED_PRIORITY_MAX",
    "BROWNOUT_TIERS",
    "RETRY_BACKOFF_FACTOR",
    "RETRY_DETECTION_DELAY_S",
    "RETRY_JITTER_FRAC",
    "RETRY_POLICIES",
    "SPARE_ACTIVATION_LATENCY_S",
    "BrownoutController",
    "BrownoutReport",
    "BrownoutTransition",
    "FailoverCoordinator",
    "ResilienceReport",
    "RetryPolicy",
    "SpareActivation",
    "availability",
    "brownout_enabled",
    "recovery_time_s",
]
