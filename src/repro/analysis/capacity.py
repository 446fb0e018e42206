"""Capacity planning: sustainable FPS vs nodes vs scenario vs policy.

The deployment question the serving stack exists to answer: *how much
traffic of a given shape can N nodes clear under a given scheduling
policy without violating the SLOs?*  This module measures it by binary
search over the offered rate — each probe regenerates the scenario at the
probe rate (arrival processes scale with the rate by construction,
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
from dataclasses import dataclass, field, replace

from repro.core.mapping import ConvWorkload
from repro.sim.fleet import FleetModel
from repro.util.parallel import ParallelConfig, parallel_map
from repro.util.tables import format_table
from repro.util.validation import check_positive

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
    micro_batch: int = 8
    #: Offered-rate search floor [FPS]; also the bracket's lower edge.
    fps_floor: float = 50.0
    #: Sustainability criteria (deadline scenarios judge on hit rate,
    #: deadline-free ones on drop rate — see the module docstring).
    max_drop_rate: float = 0.05
    min_hit_rate: float = 0.90
    #: Bisection steps after bracketing (7 ≈ 1% rate resolution).
    search_iterations: int = 7

    def __post_init__(self) -> None:
        check_positive("frames", self.frames)
        check_positive("fps_floor", self.fps_floor)
        check_positive("search_iterations", self.search_iterations)

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
    policy: str,
    nodes: int,
    offered_fps: float,
    cache=None,
) -> _ProbeOutcome:
    """Serve the scenario once at ``offered_fps`` and judge the outcome.

    The serve is schedule-only (``compute=False``): the verdict reads
    only simulated-time stream and SLO statistics, which on a fresh
    server equal a full serve's, so no logits are computed.

    ``cache`` is the study-wide :class:`WeightProgramCache`: programs are
    deterministic in (kernel set, bits, die seed), so sharing it across
    probes skips the repeated cold AWC programming without changing any
    simulated quantity (the cache is host-side only).
    """
    from repro.engine.server import FrameServer
    from repro.engine.workloads import build_scenario

    scenario = build_scenario(
        settings.scenario,
        frames=settings.frames,
        offered_fps=offered_fps,
        seed=settings.seed,
    )
    server = FrameServer(
        num_nodes=nodes,
        micro_batch=settings.micro_batch,
        seed=settings.seed,
        policy=policy,
        cache=cache,
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
    policy: str,
    nodes: int,
    hint_fps: float,
    cache=None,
) -> CapacityPoint:
    """Bracket + bisect the sustainable offered rate."""
    probes = 0
    low = settings.fps_floor
    low_outcome = _probe(settings, policy, nodes, low, cache=cache)
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
        outcome = _probe(settings, policy, nodes, high, cache=cache)
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
        outcome = _probe(settings, policy, nodes, mid, cache=cache)
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


def _prewarm_programs(
    settings: CapacitySettings,
    parallel: ParallelConfig | None = None,
    program_store=None,
):
    """Program the scenario's model zoo once, for every probe die.

    Every probe in the grid serves the *same* models (scenario model
    weights depend only on the scenario seed, not the probe rate) on die
    seeds that are a prefix of the largest node count's
    (:func:`~repro.util.rng.spawn_seeds` is prefix-stable).  Programming
    them once up front — optionally fanned out via :meth:`~repro.engine.
    server.FrameServer.warmup`'s parallel path — and handing the warmed
    :class:`~repro.engine.cache.WeightProgramCache` to every probe means
    no probe ever re-runs the cold AWC mapping chain.  This is also what
    the process backend ships to workers: the serialized program set
    crosses the process boundary once per task instead of each worker
    redundantly re-programming the zoo (the remaining duplication — one
    deserialized cache copy per task — is host memory, not recomputation).
    The cache is host-side only, so sharing it never changes a simulated
    quantity.

    With a ``program_store`` (:class:`~repro.engine.store.ProgramStore`
    or path) the prewarm itself is a store read-through: a second study
    against the same store restores every program from disk instead of
    re-running the mapping chain.
    """
    from repro.engine.server import FrameServer
    from repro.engine.workloads import build_scenario

    scenario = build_scenario(
        settings.scenario,
        frames=8,  # models are frame-count-independent; keep the build cheap
        offered_fps=settings.fps_floor,
        seed=settings.seed,
    )
    server = FrameServer(
        num_nodes=max(settings.node_counts),
        micro_batch=settings.micro_batch,
        seed=settings.seed,
        program_store=program_store,
    )
    for key, model in scenario.models.items():
        server.register_model(key, model)
    server.warmup(parallel=parallel)
    return server.cache


def _search_task(
    task: tuple[CapacitySettings, str, int, float, object],
) -> CapacityPoint:
    """One (scenario, policy, nodes) knee search, as a pure fan-out task.

    The task description carries the settings (the scenario name rides in
    them), the grid point and the pre-warmed program cache — everything
    picklable, nothing shared — per the :mod:`repro.util.parallel`
    contract.  Probes within the bracket stay sequential on purpose: each
    bisection step depends on the previous probe's verdict.
    """
    settings, policy, nodes, hint, cache = task
    return _search(settings, policy, nodes, hint, cache=cache)


def build_capacity_report(
    settings: CapacitySettings | None = None,
    parallel: ParallelConfig | None = None,
    program_store=None,
) -> CapacityReport:
    """Measure the capacity knee for every (policy, nodes) grid point.

    The outer grid fans out over ``parallel`` (grid points are
    independent searches); results merge in grid order, so the report is
    byte-identical under every backend.  ``program_store`` (path or
    :class:`~repro.engine.store.ProgramStore`) makes the prewarmed cache
    read-through/write-behind so repeat studies program nothing.
    """
    settings = settings or CapacitySettings()
    fleet = FleetModel()
    cache = _prewarm_programs(settings, parallel, program_store)
    report = CapacityReport(
        settings=settings,
        analytic_node_fps=fleet.sustainable_fps(LENET_FIRST_LAYER),
    )
    tasks = [
        (
            settings,
            policy,
            nodes,
            1.5 * fleet.fleet_capacity_fps(LENET_FIRST_LAYER, nodes),
            cache,
        )
        for nodes in settings.node_counts
        for policy in settings.policies
    ]
    report.points.extend(parallel_map(_search_task, tasks, parallel))
    return report


def sweep_scenarios(
    scenarios: tuple[str, ...],
    settings: CapacitySettings | None = None,
    parallel: ParallelConfig | None = None,
    program_store=None,
) -> list[CapacityReport]:
    """One capacity report per scenario (same grid/criteria).

    Flattens the full scenario x policy x nodes grid into one task list
    before fanning out, so a two-scenario sweep on eight cores keeps all
    eight busy instead of parallelizing one scenario at a time.  Reports
    come back grouped per scenario in input order, byte-identical to the
    serial sweep.
    """
    base = settings or CapacitySettings()
    fleet = FleetModel()
    per_scenario = [replace(base, scenario=name) for name in scenarios]
    tasks = []
    grid_size = 0
    for scenario_settings in per_scenario:
        cache = _prewarm_programs(scenario_settings, parallel, program_store)
        grid = [
            (
                scenario_settings,
                policy,
                nodes,
                1.5 * fleet.fleet_capacity_fps(LENET_FIRST_LAYER, nodes),
                cache,
            )
            for nodes in scenario_settings.node_counts
            for policy in scenario_settings.policies
        ]
        grid_size = len(grid)
        tasks.extend(grid)
    points = parallel_map(_search_task, tasks, parallel)
    reports = []
    for index, scenario_settings in enumerate(per_scenario):
        report = CapacityReport(
            settings=scenario_settings,
            analytic_node_fps=fleet.sustainable_fps(LENET_FIRST_LAYER),
        )
        report.points.extend(
            points[index * grid_size : (index + 1) * grid_size]
        )
        reports.append(report)
    return reports


def sustainable_fps_per_node(
    scenario: str,
    policy: str = "greedy",
    frames: int = 96,
    seed: int = 0,
    micro_batch: int = 8,
    cache=None,
) -> float:
    """One node's measured sustainable rate on ``scenario`` [FPS].

    The autoscaler's controller model (:mod:`repro.engine.controlplane`):
    capacity of an n-node shard is approximated as ``n x`` this value,
    which the knee search measures once per (scenario, policy) instead of
    hand-tuning a constant.  Runs the standard bracket + bisect at
    ``nodes=1`` with a short probe stream — the controller needs a
    *planning* estimate, not a report-grade curve, and the search is
    seeded so the estimate (and therefore every scaling decision built on
    it) reproduces bit-for-bit.  Returns ``0.0`` when even the search
    floor is unsustainable; callers fall back to the analytic LeNet bound.
    """
    settings = CapacitySettings(
        scenario=scenario,
        policies=(policy,),
        node_counts=(1,),
        frames=frames,
        seed=seed,
        micro_batch=micro_batch,
        search_iterations=5,
    )
    fleet = FleetModel()
    hint = 1.5 * fleet.fleet_capacity_fps(LENET_FIRST_LAYER, 1)
    point = _search(settings, policy, 1, hint, cache=cache)
    return point.sustainable_fps


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
    "sweep_scenarios",
]
