"""Capacity planning: sustainable FPS vs nodes vs scenario vs policy.

The deployment question the serving stack exists to answer: *how much
traffic of a given shape can N nodes clear under a given scheduling
policy without violating the SLOs?*  This module measures it by binary
search over the offered rate.  A study builds its base scenario (models
and traffic at the search floor) and one prewarmed program cache once;
each probe then re-times that base scenario to the probe rate
(:meth:`~repro.engine.workloads.Scenario.at_rate`: the same model
objects and read-only frame arrays, with arrivals, model choices and
keys regenerated exactly as a fresh build at that rate would draw them —
arrival processes scale with the rate by construction,
:mod:`repro.engine.workloads`), serves it schedule-only
(``compute=False``: the simulated-time outcome without logits) on a
fresh :class:`~repro.engine.FrameServer`, and checks the outcome against
the sustainability criteria:

* when the scenario defines deadlines: overall SLO hit rate at least
  ``min_hit_rate`` (drops, sheds and late deliveries all count against
  it — a queueing policy that delivers everything seconds late is not
  "sustaining" the load);
* otherwise: drop rate at most ``max_drop_rate``.

The criteria are intentionally *one or the other*: on memoryless arrival
processes a drop-if-busy policy collides at ``~rate x service_time``
probability at any rate (M/D/1 loss), so a hard drop bound would judge
every offered rate unsustainable; the deadline hit rate prices those
collisions the way a tenant would.

The analytic LeNet-first-layer ceiling
(:meth:`~repro.sim.fleet.FleetModel.sustainable_fps` per node) is
reported next to every measured point as a fixed reference: mixed
scenarios can land above it (cheaper MLP frames in the mix) or below it
(remap phases, arrival jitter) — the *ratio* is what the curves make
comparable across policies and node counts.  Horizon caveat: a probe
stream must be several deadlines long for "sustainable" to approximate
steady state (the p99 criterion bounds, but cannot eliminate, the
finite-horizon optimism of queueing policies); the default ``frames``
is sized for that.  Determinism: probes are seeded and the search grid
is fixed by the settings, so a report reproduces bit-for-bit.

Entry points: ``repro sweep --capacity`` (CLI) and
``tests/test_analysis_capacity.py`` (tier-1, fast preset).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.mapping import ConvWorkload
from repro.sim.fleet import FleetModel
from repro.util.tables import format_table
from repro.util.validation import (
    check_count,
    check_positive,
    check_probability,
)

#: LeNet's first convolution — the analytic-bound reference workload
#: (matches the ``default``/``poisson`` scenarios' interactive model).
LENET_FIRST_LAYER = ConvWorkload(
    kernel_size=5,
    num_kernels=6,
    in_channels=1,
    image_height=28,
    image_width=28,
    stride=1,
    padding=2,
)


@dataclass(frozen=True)
class CapacitySettings:
    """Grid + criteria of one capacity study."""

    scenario: str = "poisson"
    policies: tuple[str, ...] = ("greedy", "slo")
    node_counts: tuple[int, ...] = (1, 2, 4)
    frames: int = 240
    seed: int = 0
    #: Offered-rate search floor [FPS]; also the bracket's lower edge.
    fps_floor: float = 50.0
    #: Sustainability criteria (deadline scenarios judge on hit rate,
    #: deadline-free ones on drop rate — see the module docstring).
    max_drop_rate: float = 0.05
    min_hit_rate: float = 0.90
    #: Bisection steps after bracketing (7 ≈ 1% rate resolution).
    search_iterations: int = 7

    def __post_init__(self) -> None:
        from repro.engine.scheduler import scheduling_policy

        check_count("frames", self.frames)
        check_positive("fps_floor", self.fps_floor)
        if not math.isfinite(self.fps_floor):
            raise ValueError(
                f"fps_floor must be finite, got {self.fps_floor!r}"
            )
        check_count("search_iterations", self.search_iterations)
        check_probability("max_drop_rate", self.max_drop_rate)
        check_probability("min_hit_rate", self.min_hit_rate)
        if not self.policies:
            raise ValueError("policies must name at least one policy")
        for policy in self.policies:
            scheduling_policy(policy)  # raises on an unknown name
        if not self.node_counts:
            raise ValueError("node_counts must name at least one node count")
        for nodes in self.node_counts:
            check_count("each node_counts entry", nodes)

    @staticmethod
    def fast() -> "CapacitySettings":
        """Tier-1-test preset: deterministic scenario, tiny grid."""
        return CapacitySettings(
            scenario="diurnal",
            policies=("greedy",),
            node_counts=(1, 2),
            frames=32,
            search_iterations=4,
        )


@dataclass(frozen=True)
class CapacityPoint:
    """One (scenario, policy, nodes) knee of the capacity curve."""

    scenario: str
    policy: str
    nodes: int
    #: Highest offered rate that met the criteria [FPS].
    sustainable_fps: float
    #: Outcome at that rate.
    drop_rate: float
    hit_rate: float
    p99_latency_s: float
    #: Serve calls the search spent.
    probes: int
    #: Whether the bracket expansion ever found an unsustainable rate.
    #: ``False`` means ``sustainable_fps`` is a *lower bound* (the search
    #: hit its expansion cap while everything still passed) — rendered
    #: as ``>=`` in the report.
    bracketed: bool = True


@dataclass
class CapacityReport:
    """Every measured point plus the analytic per-node ceiling."""

    settings: CapacitySettings
    points: list[CapacityPoint] = field(default_factory=list)
    #: Analytic LeNet-first-layer drop-free rate per node [FPS]
    #: (fixed reference, not a per-scenario ceiling).
    analytic_node_fps: float = 0.0

    def point(self, policy: str, nodes: int) -> CapacityPoint | None:
        """Look up one measured point."""
        for entry in self.points:
            if entry.policy == policy and entry.nodes == nodes:
                return entry
        return None


@dataclass(frozen=True)
class _ProbeOutcome:
    sustainable: bool
    drop_rate: float
    hit_rate: float
    p99_latency_s: float


def _probe(
    settings: CapacitySettings,
    base,
    cache,
    policy: str,
    nodes: int,
    offered_fps: float,
) -> _ProbeOutcome:
    """Re-time the study's base scenario to ``offered_fps``, serve, judge.

    ``base.at_rate(offered_fps)`` keeps the study's model objects and
    the base build's read-only frame arrays, and regenerates arrivals,
    model choices and keys exactly as a fresh build at that rate would,
    so no probe draws pixels.  The serve is schedule-only
    (``compute=False``): the verdict reads only simulated-time stream and
    SLO statistics, which on a fresh server equal a full serve's, so no
    logits are computed.

    ``cache`` is the study-wide :class:`WeightProgramCache`: programs are
    deterministic in (kernel set, bits, die seed), so sharing it across
    probes skips the repeated cold AWC programming without changing any
    simulated quantity (the cache is host-side only).
    """
    from repro.engine.server import FrameServer

    scenario = base.at_rate(offered_fps)
    server = FrameServer(
        num_nodes=nodes, seed=settings.seed, policy=policy, cache=cache
    )
    report = server.serve_scenario(scenario, compute=False)
    drop_rate = report.stream.drop_rate
    has_deadlines = report.slo is not None and any(
        stats.deadline_s is not None for stats in report.slo.classes.values()
    )
    hit_rate = report.slo.overall_hit_rate if has_deadlines else 1.0
    p99 = report.stream.latency_percentile(0.99)
    if has_deadlines:
        # The p99 bound closes the finite-horizon loophole: on a short
        # probe stream a queueing policy can park its end-of-stream
        # backlog inside the hit-rate tolerance at far-above-capacity
        # rates; requiring the latency tail itself to sit within the
        # loosest deadline keeps "sustainable" meaning *steady-state*.
        worst_deadline = max(
            stats.deadline_s
            for stats in report.slo.classes.values()
            if stats.deadline_s is not None
        )
        # p99 is NaN when the probe delivered zero frames; that must read
        # as "not sustainable" explicitly, never ride on NaN comparison
        # semantics (any `NaN < deadline` call site silently passes).
        sustainable = (
            not math.isnan(p99)
            and hit_rate >= settings.min_hit_rate
            and p99 <= worst_deadline + 1e-12
        )
    else:
        sustainable = drop_rate <= settings.max_drop_rate
    return _ProbeOutcome(
        sustainable=sustainable,
        drop_rate=drop_rate,
        hit_rate=hit_rate,
        p99_latency_s=p99,
    )


def _search(
    settings: CapacitySettings,
    base,
    cache,
    policy: str,
    nodes: int,
    hint_fps: float,
) -> CapacityPoint:
    """Bracket + bisect the sustainable offered rate."""
    probes = 0
    low = settings.fps_floor
    low_outcome = _probe(settings, base, cache, policy, nodes, low)
    probes += 1
    if not low_outcome.sustainable:
        return CapacityPoint(
            scenario=settings.scenario,
            policy=policy,
            nodes=nodes,
            sustainable_fps=0.0,
            drop_rate=low_outcome.drop_rate,
            hit_rate=low_outcome.hit_rate,
            p99_latency_s=low_outcome.p99_latency_s,
            probes=probes,
        )
    high = max(hint_fps, 2.0 * low)
    bracketed = False
    for _ in range(6):  # expand until the bracket contains the knee
        outcome = _probe(settings, base, cache, policy, nodes, high)
        probes += 1
        if not outcome.sustainable:
            bracketed = True
            break
        low, low_outcome = high, outcome
        high *= 2.0
    if not bracketed:
        # Every expansion probe passed: `low` is a lower bound, not a
        # measured knee; bisecting against the unprobed `high` would
        # fabricate precision, so return the bound flagged as open.
        return CapacityPoint(
            scenario=settings.scenario,
            policy=policy,
            nodes=nodes,
            sustainable_fps=low,
            drop_rate=low_outcome.drop_rate,
            hit_rate=low_outcome.hit_rate,
            p99_latency_s=low_outcome.p99_latency_s,
            probes=probes,
            bracketed=False,
        )
    for _ in range(settings.search_iterations):
        mid = 0.5 * (low + high)
        outcome = _probe(settings, base, cache, policy, nodes, mid)
        probes += 1
        if outcome.sustainable:
            low, low_outcome = mid, outcome
        else:
            high = mid
    return CapacityPoint(
        scenario=settings.scenario,
        policy=policy,
        nodes=nodes,
        sustainable_fps=low,
        drop_rate=low_outcome.drop_rate,
        hit_rate=low_outcome.hit_rate,
        p99_latency_s=low_outcome.p99_latency_s,
        probes=probes,
    )


def _prewarm_programs(settings: CapacitySettings, models, program_store=None):
    """Program the study's models once, for every probe die.

    Every probe in the grid re-times the study's base scenario, so it
    serves the *same* model objects (``models``, the base scenario's) on
    die seeds that are a prefix of the largest node count's
    (:func:`~repro.util.rng.spawn_seeds` is prefix-stable).  Programming
    them once up front via :meth:`~repro.engine.server.FrameServer.warmup`
    and handing the warmed :class:`~repro.engine.cache.WeightProgramCache`
    to every probe means no probe ever re-runs the cold AWC mapping chain.
    The cache is host-side only, so sharing it never changes a simulated
    quantity.

    With a ``program_store`` (:class:`~repro.engine.store.ProgramStore`
    or path) the prewarm itself is a store read-through: a second study
    against the same store restores every program from disk instead of
    re-running the mapping chain.
    """
    from repro.engine.server import FrameServer

    server = FrameServer(
        num_nodes=max(settings.node_counts),
        seed=settings.seed,
        program_store=program_store,
    )
    for key, model in models.items():
        server.register_model(key, model)
    server.warmup()
    return server.cache


def build_capacity_report(
    settings: CapacitySettings | None = None,
    program_store=None,
) -> CapacityReport:
    """Measure the capacity knee for every (policy, nodes) grid point.

    The study builds its base scenario (at ``fps_floor``) and prewarms
    one program cache from its models once; grid points are then
    independent searches over re-timed copies of it, run in grid order.
    ``program_store`` (path or :class:`~repro.engine.store.ProgramStore`)
    makes the prewarmed cache read-through/write-behind so repeat studies
    program nothing.
    """
    from repro.engine.workloads import build_scenario

    settings = settings or CapacitySettings()
    fleet = FleetModel()
    base = build_scenario(
        settings.scenario,
        frames=settings.frames,
        offered_fps=settings.fps_floor,
        seed=settings.seed,
    )
    cache = _prewarm_programs(settings, base.models, program_store)
    report = CapacityReport(
        settings=settings,
        analytic_node_fps=fleet.sustainable_fps(LENET_FIRST_LAYER),
    )
    for nodes in settings.node_counts:
        hint = 1.5 * fleet.fleet_capacity_fps(LENET_FIRST_LAYER, nodes)
        for policy in settings.policies:
            report.points.append(
                _search(settings, base, cache, policy, nodes, hint)
            )
    return report


def sustainable_fps_per_node(
    scenario: str,
    policy: str = "greedy",
    frames: int = 96,
    seed: int = 0,
) -> float:
    """One node's measured sustainable rate on ``scenario`` [FPS].

    The autoscaler's controller model (:mod:`repro.engine.controlplane`):
    capacity of an n-node shard is approximated as ``n x`` this value,
    which the knee search measures once per (scenario, policy) instead of
    hand-tuning a constant.  Runs a one-point :func:`build_capacity_report`
    (same one-time base scenario and prewarmed cache) at ``nodes=1`` with
    a short probe stream — the controller needs a *planning* estimate,
    not a report-grade curve, and the search is seeded so the estimate
    (and therefore every scaling decision built on it) reproduces
    bit-for-bit.  ``scenario`` must be a registered scenario key.  Returns
    ``0.0`` when even the search floor is unsustainable; callers fall
    back to the analytic LeNet bound.
    """
    settings = CapacitySettings(
        scenario=scenario,
        policies=(policy,),
        node_counts=(1,),
        frames=frames,
        seed=seed,
        search_iterations=5,
    )
    return build_capacity_report(settings).points[0].sustainable_fps


def render_capacity_report(report: CapacityReport) -> str:
    """Human-readable capacity-planning table."""
    rows = []
    for point in report.points:
        analytic = report.analytic_node_fps * point.nodes
        knee = f"{point.sustainable_fps:.0f}"
        rows.append(
            (
                point.scenario,
                point.policy,
                point.nodes,
                knee if point.bracketed else f">={knee}",
                f"{analytic:.0f}",
                f"{point.sustainable_fps / analytic:.2f}"
                if analytic > 0
                else "-",
                f"{point.hit_rate:.3f}",
                "n/a"
                if math.isnan(point.p99_latency_s)
                else f"{point.p99_latency_s * 1e3:.2f}",
            )
        )
    settings = report.settings
    return format_table(
        (
            "scenario",
            "policy",
            "nodes",
            "sustainable FPS",
            "LeNet bound",
            "utilization",
            "hit rate",
            "p99 [ms]",
        ),
        rows,
        title=(
            f"Capacity planning — scenario {settings.scenario!r}, "
            f"drop<= {settings.max_drop_rate:.0%}, "
            f"hit>= {settings.min_hit_rate:.0%}"
        ),
    )


__all__ = [
    "LENET_FIRST_LAYER",
    "CapacityPoint",
    "CapacityReport",
    "CapacitySettings",
    "build_capacity_report",
    "render_capacity_report",
    "sustainable_fps_per_node",
]
