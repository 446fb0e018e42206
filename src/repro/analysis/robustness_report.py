"""Robustness tables: accuracy-vs-fault-rate + serving resilience.

The paper's Table II reports healthy-die accuracy; this report extends the
evaluation along the degradation axis the serving engine now exercises
(:mod:`repro.engine.health`): for every registered platform
(:mod:`repro.sim.platforms`) and every dead-device rate, what top-1
accuracy survives?

A second table (:func:`build_resilience_report`) covers the *serving*
robustness axis added by :mod:`repro.engine.chaos` /
:mod:`repro.engine.failover`: the same chaos-injected stream served under
increasing failover ladders (none → retry → retry + warm spares), with
availability, interactive deadline attainment and recovery time per rung.

* **Fault-injectable platforms** (OISA: ``Platform.fault_injectable``) run
  hardware-in-the-loop through :class:`~repro.sim.faults.FaultyOpticalCore`
  at each rate, optionally twice — raw and with the per-die AWC
  pre-distortion of :class:`~repro.core.calibration.CalibratedAwcMapper`
  (the online-recalibration path's mapping chain);
* **digital platforms** (the rebuilt baselines) have no optical fault
  surface; they hold the software accuracy at every rate and the table
  marks them exempt.

All draws are seeded, so the table is deterministic; the tier-1 test runs
a scaled-down preset and the CLI (``repro sweep --fault-profile ...``)
prints the default one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import OISAConfig
from repro.core.opc import OpticalProcessingCore
from repro.core.pipeline import HardwareFirstLayerPipeline
from repro.datasets.catalog import Dataset
from repro.datasets.synthetic import SyntheticSpec, generate_dataset
from repro.nn.models import FirstLayerConfig, build_lenet
from repro.nn.optim import SGD, CosineLR
from repro.nn.train import Trainer
from repro.sim.faults import FaultSpec, FaultyOpticalCore
from repro.sim.platforms import iter_platforms
from repro.util.tables import format_table


@dataclass(frozen=True)
class RobustnessSettings:
    """Scale knobs for the robustness sweep (all seeded/deterministic)."""

    fault_rates: tuple[float, ...] = (0.0, 0.02, 0.05, 0.1, 0.3)
    #: Fault classes applied *alongside* the swept dead-MR rate — a
    #: :class:`~repro.engine.health.FaultProfile`'s ``fault_spec`` plugs in
    #: here (``repro sweep --fault-profile``), so a harsher profile (stuck
    #: AWC branches, BPD gain drift) produces a genuinely harsher table.
    base_spec: FaultSpec = field(default_factory=FaultSpec)
    #: Scenario label shown in the rendered title ("" = generic sweep).
    label: str = ""
    weight_bits: int = 3
    num_classes: int = 4
    image_size: int = 16
    train_size: int = 240
    test_size: int = 120
    epochs: int = 4
    seed: int = 0
    oisa_seed: int = 7
    fault_seed: int = 9
    #: Also evaluate the calibrated (pre-distorted AWC) mapping chain.
    include_calibrated: bool = True

    @classmethod
    def fast(cls) -> "RobustnessSettings":
        """Tier-1-test preset: trims the rate grid, keeps the training
        scale (an undertrained probe sits at chance level and hides the
        fault effect the sweep exists to show)."""
        return cls(fault_rates=(0.0, 0.3))


@dataclass(frozen=True)
class RobustnessCell:
    """One (platform, fault rate) accuracy measurement."""

    platform: str
    fault_rate: float
    accuracy: float
    #: Accuracy with the calibrated mapping chain (None when not measured
    #: or not applicable).
    calibrated_accuracy: float | None
    #: Whether the platform actually degrades (False = digital, exempt).
    fault_injectable: bool


@dataclass
class RobustnessReport:
    """The full sweep plus the context needed to render it."""

    settings: RobustnessSettings
    software_accuracy: float
    cells: list[RobustnessCell] = field(default_factory=list)

    def platforms(self) -> tuple[str, ...]:
        """Platform names in registry order."""
        seen: dict[str, None] = {}
        for cell in self.cells:
            seen.setdefault(cell.platform, None)
        return tuple(seen)

    def accuracy_matrix(self) -> dict[str, dict[float, float]]:
        """{platform: {fault rate: accuracy}} over the sweep."""
        matrix: dict[str, dict[float, float]] = {}
        for cell in self.cells:
            matrix.setdefault(cell.platform, {})[cell.fault_rate] = cell.accuracy
        return matrix


def train_probe_model(settings: RobustnessSettings):
    """Train the shared QAT probe model on a seeded synthetic task."""
    spec = SyntheticSpec(
        name="robustness",
        num_classes=settings.num_classes,
        image_size=settings.image_size,
        channels=1,
        train_size=settings.train_size,
        test_size=settings.test_size,
        noise_sigma=0.05,
        jitter_px=1,
        clutter=0.08,
        seed=5,
    )
    x_train, y_train, x_test, y_test = generate_dataset(spec)
    dataset = Dataset(
        "robustness",
        x_train,
        y_train,
        x_test,
        y_test,
        settings.num_classes,
        settings.image_size,
        1,
        "LeNet",
    )
    model = build_lenet(
        num_classes=settings.num_classes,
        input_size=settings.image_size,
        first_layer=FirstLayerConfig(weight_bits=settings.weight_bits),
        seed=settings.seed,
    )
    trainer = Trainer(
        model,
        SGD(model.parameters(), momentum=0.9, weight_decay=1e-4),
        CosineLR(0.05, 1e-4),
        seed=settings.seed,
    )
    trainer.fit(
        x_train, y_train, epochs=settings.epochs, batch_size=32
    )
    return model, dataset


def _software_accuracy(model, dataset) -> float:
    """Top-1 accuracy of the pure-software (no optics) forward pass."""
    logits = model.forward(dataset.x_test, training=False)
    return float((logits.argmax(axis=1) == dataset.y_test).mean())


def _hardware_accuracy(
    model,
    dataset,
    settings: RobustnessSettings,
    rate: float,
    calibrated: bool,
) -> float:
    """Hardware-in-the-loop accuracy at one dead-MR rate.

    The swept rate replaces ``base_spec.dead_mr_rate``; the base spec's
    other fault classes ride along at every point.
    """
    from dataclasses import replace

    from repro.core.calibration import CalibratedAwcMapper

    config = OISAConfig().with_weight_bits(settings.weight_bits)
    opc = OpticalProcessingCore(config, seed=settings.oisa_seed)
    if calibrated:
        opc.awc = CalibratedAwcMapper(opc.awc)
    spec = replace(settings.base_spec, dead_mr_rate=rate)
    core = (
        FaultyOpticalCore(opc, spec, seed=settings.fault_seed)
        if spec.any_faults
        else opc
    )
    pipeline = HardwareFirstLayerPipeline(model, core)
    return pipeline.evaluate(dataset.x_test, dataset.y_test)


def build_robustness_report(
    settings: RobustnessSettings | None = None,
) -> RobustnessReport:
    """Run the registry-driven accuracy-vs-fault-rate sweep.

    The probe model trains once; each fault-injectable (platform, rate)
    cell is then an independent seeded evaluation, in registry x rate
    order.
    """
    settings = settings or RobustnessSettings()
    model, dataset = train_probe_model(settings)
    software = _software_accuracy(model, dataset)
    report = RobustnessReport(settings=settings, software_accuracy=software)
    for platform in iter_platforms():
        for rate in settings.fault_rates:
            if platform.fault_injectable:
                accuracy = _hardware_accuracy(
                    model, dataset, settings, rate, calibrated=False
                )
                calibrated = (
                    _hardware_accuracy(
                        model, dataset, settings, rate, calibrated=True
                    )
                    if settings.include_calibrated
                    else None
                )
            else:
                # Digital platform: no optical fault surface; accuracy is
                # the software model's at every rate.
                accuracy = software
                calibrated = None
            report.cells.append(
                RobustnessCell(
                    platform=platform.name,
                    fault_rate=rate,
                    accuracy=accuracy,
                    calibrated_accuracy=calibrated,
                    fault_injectable=platform.fault_injectable,
                )
            )
    return report


def render_robustness_report(report: RobustnessReport | None = None) -> str:
    """Aligned table of the sweep (one row per platform x rate)."""
    report = report or build_robustness_report()
    rows = []
    for cell in report.cells:
        rows.append(
            (
                cell.platform,
                f"{cell.fault_rate * 100:.0f}%",
                f"{cell.accuracy * 100:.1f}",
                (
                    f"{cell.calibrated_accuracy * 100:.1f}"
                    if cell.calibrated_accuracy is not None
                    else "-"
                ),
                "optical" if cell.fault_injectable else "digital (exempt)",
            )
        )
    scenario = f" [{report.settings.label}]" if report.settings.label else ""
    title = (
        f"Robustness{scenario}: accuracy vs dead-device rate across the "
        f"platform registry ({report.settings.weight_bits}-bit first "
        f"layer, software baseline {report.software_accuracy * 100:.1f}%)"
    )
    return format_table(
        (
            "platform",
            "fault rate",
            "accuracy [%]",
            "calibrated [%]",
            "fault surface",
        ),
        rows,
        title=title,
    )


# ----------------------------------------------------------------------
# Serving resilience: chaos stream vs failover ladder
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResilienceSettings:
    """Scale knobs for the chaos-vs-failover serving drill."""

    chaos_plan: str = "node-loss"
    scenario: str = "chaos"
    frames: int = 360
    offered_fps: float = 2400.0
    num_nodes: int = 2
    spares: int = 1
    retry_policy: str = "deadline"
    policy: str = "slo"
    seed: int = 0
    #: SLO class whose deadline attainment the table tracks.
    interactive_class: str = "interactive"

    @classmethod
    def fast(cls) -> "ResilienceSettings":
        """Tier-1-test preset: a shorter stream, same operating point."""
        return cls(frames=180, offered_fps=2400.0)


@dataclass(frozen=True)
class ResilienceRow:
    """One failover configuration served through the chaos stream."""

    label: str
    availability: float
    interactive_hit_rate: float
    #: First chaos loss onset -> first post-onset interactive delivery
    #: [s]; None when the plan injects no loss, inf when nothing recovers.
    recovery_time_s: float | None
    frames_lost_in_flight: int
    frames_recovered: int
    retries_scheduled: int
    spares_activated: int


@dataclass
class ServingResilienceReport:
    """The failover ladder served through one chaos-injected stream."""

    settings: ResilienceSettings
    rows: list[ResilienceRow] = field(default_factory=list)


def build_resilience_report(
    settings: ResilienceSettings | None = None,
) -> ServingResilienceReport:
    """Serve the chaos scenario under none → retry → retry + spares.

    Every rung serves the *same* request stream (same scenario seed) on a
    fresh server, so the rows differ only in the failover configuration —
    deterministic per settings, byte-for-byte.  The rows read only
    simulated-time outcomes, so each rung serves schedule-only
    (``compute=False``), which on a fresh server leaves them unchanged.
    """
    from repro.engine.failover import availability, recovery_time_s
    from repro.engine.server import FrameServer
    from repro.engine.workloads import build_scenario

    settings = settings or ResilienceSettings()
    report = ServingResilienceReport(settings=settings)
    ladder = [
        ("no-failover", None, 0),
        ("retry", settings.retry_policy, 0),
        ("retry+spares", settings.retry_policy, settings.spares),
    ]
    for label, retry, spares in ladder:
        scenario = build_scenario(
            settings.scenario,
            frames=settings.frames,
            offered_fps=settings.offered_fps,
            seed=settings.seed,
        )
        server = FrameServer(
            num_nodes=settings.num_nodes,
            seed=settings.seed,
            policy=settings.policy,
            chaos_plan=settings.chaos_plan,
            retry_policy=retry,
            spares=spares,
        )
        for key, model in scenario.models.items():
            server.register_model(key, model)
        server.warmup()
        serve_report = server.serve_scenario(scenario, compute=False)
        interactive = (
            serve_report.slo.classes.get(settings.interactive_class)
            if serve_report.slo is not None
            else None
        )
        resilience = serve_report.resilience
        interactive_keys = {
            key
            for key, slo in scenario.slo_classes.items()
            if slo.name == settings.interactive_class
        }
        report.rows.append(
            ResilienceRow(
                label=label,
                availability=availability(serve_report),
                interactive_hit_rate=(
                    interactive.hit_rate if interactive is not None else 0.0
                ),
                recovery_time_s=recovery_time_s(
                    serve_report, model_keys=interactive_keys or None
                ),
                frames_lost_in_flight=(
                    resilience.frames_lost_in_flight if resilience else 0
                ),
                frames_recovered=(
                    resilience.frames_recovered if resilience else 0
                ),
                retries_scheduled=(
                    resilience.retries_scheduled if resilience else 0
                ),
                spares_activated=(
                    resilience.spares_activated if resilience else 0
                ),
            )
        )
    return report


def render_resilience_report(
    report: ServingResilienceReport | None = None,
) -> str:
    """Aligned table of the failover ladder (one row per configuration)."""
    import math as _math

    report = report or build_resilience_report()
    rows = []
    for row in report.rows:
        if row.recovery_time_s is None:
            recovery = "-"
        elif _math.isinf(row.recovery_time_s):
            recovery = "never"
        else:
            recovery = f"{row.recovery_time_s * 1e3:.2f}"
        rows.append(
            (
                row.label,
                f"{row.availability * 100:.1f}",
                f"{row.interactive_hit_rate * 100:.1f}",
                recovery,
                str(row.frames_lost_in_flight),
                str(row.frames_recovered),
                str(row.retries_scheduled),
                str(row.spares_activated),
            )
        )
    settings = report.settings
    title = (
        f"Serving resilience: chaos plan {settings.chaos_plan!r} over "
        f"{settings.frames} frames @ {settings.offered_fps:.0f} fps on "
        f"{settings.num_nodes} node(s)"
    )
    return format_table(
        (
            "failover",
            "availability [%]",
            "interactive hit [%]",
            "recovery [ms]",
            "lost in flight",
            "recovered",
            "retries",
            "spares",
        ),
        rows,
        title=title,
    )
