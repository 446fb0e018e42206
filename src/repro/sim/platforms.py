"""Platform registry: one uniform evaluation surface for every platform.

The paper's evaluation compares OISA against three rebuilt baselines
(CrossLight-like, AppCiP-like, DaDianNao-like ASIC) on the same first-layer
workloads.  Historically each analysis script re-enumerated those platforms
by hand; this module makes the set *data*:

* :class:`Platform` — the adapter interface: ``simulate_conv`` /
  ``simulate_mlp`` plus capability flags and parameter metadata;
* :func:`register_platform` — class decorator adding an adapter under a
  stable key;
* :func:`platform_registry` — the registered keys in canonical comparison
  order (OISA first, then the baselines);
* :func:`get_platform` / :func:`iter_platforms` — adapter construction
  bound to one :class:`~repro.core.config.OISAConfig`.

Adding a platform is now a one-file change: subclass :class:`Platform`,
decorate it, and every registry-driven consumer (``analysis/table1``,
``analysis/fig9``, ``analysis/sweeps``, ``analysis/claims``,
``analysis/robustness_report``, the ``compare``/``sweep`` CLI commands
and the benches) picks it up.

Units: simulation reports carry energies in joules, powers in watts,
times in seconds, throughputs in TOp/s and efficiencies in TOp/s/W —
the quantities of the paper's Fig. 9 and Table I.  Paper anchors:
Table I (structural flags: in-sensor, memory, NVM, technology node),
Fig. 9 (the [weight:activation] bit grid all ``simulate_conv`` calls
default to), Section V (the three rebuilt comparison platforms).

Capability flags are honest interfaces: ``supports_conv``/
``supports_mlp`` gate the ``simulate_*`` methods, and
``fault_injectable`` marks the platforms whose hardware surface
:mod:`repro.sim.faults` can degrade (only OISA models the optical fault
physics; the digital baselines are exempt in robustness sweeps).
Changing any adapter's numbers is a golden-guarded event: Table 1 /
Fig. 9 / claims ``repr()`` outputs must stay bit-identical
(``tests/test_goldens.py``) unless the change is intentional and the
goldens are regenerated.
"""

from __future__ import annotations

from typing import Iterator

from repro.baselines.appcip import AppCipAccelerator
from repro.baselines.asic import AsicAccelerator
from repro.baselines.crosslight import CrosslightAccelerator
from repro.core.config import OISAConfig
from repro.core.energy import OISAEnergyModel
from repro.core.mapping import (
    ConvWorkload,
    MlpWorkload,
    plan_convolution,
    plan_mlp,
)
from repro.sim.reports import SimulationReport
from repro.util.validation import registry_key

_REGISTRY: dict[str, type["Platform"]] = {}


def register_platform(key: str):
    """Class decorator: register a :class:`Platform` subclass under ``key``."""

    def decorator(cls: type["Platform"]) -> type["Platform"]:
        lowered = key.lower()
        if lowered in _REGISTRY and _REGISTRY[lowered] is not cls:
            raise ValueError(f"platform key {lowered!r} is already registered")
        cls.key = lowered
        _REGISTRY[lowered] = cls
        return cls

    return decorator


def platform_registry() -> tuple[str, ...]:
    """Registered platform keys, in canonical comparison order."""
    return tuple(_REGISTRY)


def get_platform(key: str, config: OISAConfig | None = None) -> "Platform":
    """Construct the adapter registered under ``key``.

    Raises ``ValueError`` for unknown keys.
    """
    return _REGISTRY[registry_key("platform", key, _REGISTRY)](config)


def iter_platforms(config: OISAConfig | None = None) -> Iterator["Platform"]:
    """Yield one adapter per registered platform, bound to ``config``."""
    for key in platform_registry():
        yield get_platform(key, config)


class Platform:
    """Adapter interface every registered platform implements.

    Subclasses fill in the class attributes and override the ``simulate_*``
    methods they support; the base implementations raise
    ``NotImplementedError`` so capability flags and behaviour stay in sync.
    """

    #: Registry key (set by :func:`register_platform`).
    key: str = ""
    #: Display name used in reports/tables.
    name: str = ""
    #: Whether :meth:`simulate_conv` is implemented.
    supports_conv: bool = False
    #: Whether :meth:`simulate_mlp` is implemented.
    supports_mlp: bool = False
    #: Whether the platform computes inside the sensor (in/near-pixel).
    in_sensor: bool = False
    #: Whether the platform holds weights in on-unit memory (Table I "mem").
    has_memory: bool = True
    #: Whether the weight store is non-volatile (Table I "NVM").
    has_nvm: bool = False
    #: Fabrication node reported in Table I.
    technology_nm: int = 65
    #: Whether the platform exposes a hardware-in-the-loop fault surface
    #: (:mod:`repro.sim.faults`) that :mod:`repro.analysis.robustness_report`
    #: can degrade; digital baselines are assumed fault-free.
    fault_injectable: bool = False

    def __init__(self, config: OISAConfig | None = None) -> None:
        self.config = config or OISAConfig()

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def parameters(self) -> dict[str, object]:
        """Structural parameter metadata (Table-I style facts)."""
        return {
            "key": self.key,
            "name": self.name,
            "supports_conv": self.supports_conv,
            "supports_mlp": self.supports_mlp,
            "in_sensor": self.in_sensor,
            "has_memory": self.has_memory,
            "has_nvm": self.has_nvm,
            "technology_nm": self.technology_nm,
            "fault_injectable": self.fault_injectable,
        }

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate_conv(
        self,
        workload: ConvWorkload,
        weight_bits: int | None = None,
        activation_bits: int = 2,
        frame_rate_hz: float | None = None,
        include_mapping: bool = False,
    ) -> SimulationReport:
        """Simulate a convolutional first layer on this platform."""
        raise NotImplementedError(f"{self.name} does not simulate convolutions")

    def simulate_mlp(
        self, workload: MlpWorkload, weight_bits: int | None = None
    ) -> SimulationReport:
        """Simulate a dense first layer on this platform."""
        raise NotImplementedError(f"{self.name} does not simulate dense layers")


def conv_workload_tag(workload: ConvWorkload) -> str:
    """Canonical workload label used across all platform reports."""
    return (
        f"conv{workload.kernel_size}x{workload.kernel_size}-"
        f"{workload.num_kernels}k-{workload.in_channels}c-"
        f"{workload.image_height}x{workload.image_width}"
    )


@register_platform("oisa")
class OISAPlatform(Platform):
    """The paper's architecture, evaluated live from the energy model."""

    name = "OISA"
    supports_conv = True
    supports_mlp = True
    in_sensor = True
    fault_injectable = True

    def __init__(self, config: OISAConfig | None = None) -> None:
        super().__init__(config)
        self.energy_model = OISAEnergyModel(self.config)

    def parameters(self) -> dict[str, object]:
        cfg = self.config
        return {
            **super().parameters(),
            "num_banks": cfg.num_banks,
            "total_mrs": cfg.total_mrs,
            "total_arms": cfg.total_arms,
            "weight_bits": cfg.weight_bits,
            "frame_rate_hz": cfg.frame_rate_hz,
        }

    def simulate_conv(
        self,
        workload: ConvWorkload,
        weight_bits: int | None = None,
        activation_bits: int = 2,
        frame_rate_hz: float | None = None,
        include_mapping: bool = False,
    ) -> SimulationReport:
        bits = weight_bits if weight_bits is not None else self.config.weight_bits
        config = self.config.with_weight_bits(bits)
        model = OISAEnergyModel(config)
        plan = plan_convolution(config, workload)
        rate = frame_rate_hz if frame_rate_hz is not None else config.frame_rate_hz
        energy = model.frame_energy_j(plan, include_mapping=include_mapping)
        return SimulationReport(
            platform=self.name,
            workload=conv_workload_tag(workload),
            weight_bits=bits,
            compute_cycles=plan.compute_cycles,
            compute_time_s=model.compute_time_s(plan),
            frame_energy_j=energy.total,
            average_power_w=energy.total * rate,
            breakdown=energy.scaled(rate),
            peak_throughput_tops=model.peak_throughput_ops() / 1e12,
            efficiency_tops_per_watt=model.efficiency_tops_per_watt(
                workload.kernel_size
            ),
            frame_rate_fps=rate,
        )

    def simulate_mlp(
        self, workload: MlpWorkload, weight_bits: int | None = None
    ) -> SimulationReport:
        bits = weight_bits if weight_bits is not None else self.config.weight_bits
        config = self.config.with_weight_bits(bits)
        plan = plan_mlp(config, workload)
        model = OISAEnergyModel(config)
        energy = model.mlp_frame_energy_j(plan)
        rate = config.frame_rate_hz
        return SimulationReport(
            platform=self.name,
            workload=f"mlp-{workload.input_features}x{workload.output_features}",
            weight_bits=bits,
            compute_cycles=plan.compute_cycles,
            compute_time_s=model.mlp_compute_time_s(plan),
            frame_energy_j=energy.total,
            average_power_w=energy.total * rate,
            breakdown=energy.scaled(rate),
            peak_throughput_tops=model.peak_throughput_ops() / 1e12,
            efficiency_tops_per_watt=model.efficiency_tops_per_watt(3),
            frame_rate_fps=rate,
        )

    def table1_row(self) -> dict:
        """OISA's measured Table I entries (bit-identical to the old path)."""
        from repro.core.energy import default_plan

        cfg = self.config
        model = self.energy_model
        plan = default_plan(cfg)
        electronics_mw = model.electronics_power_w(plan) * 1e3
        return {
            "technology_nm": 65,
            "purpose": "1st-layer CNN",
            "compute_scheme": "entire-array",
            "has_memory": True,
            "has_nvm": False,
            "pixel_size_um": cfg.pixel_pitch_m * 1e6,
            "array_size": f"{cfg.pixel_rows}x{cfg.pixel_cols}",
            "frame_rate_fps": f"{cfg.frame_rate_hz:.0f}",
            "power_mw": f"{electronics_mw:.4f}",
            "efficiency_tops_per_watt": f"{model.efficiency_tops_per_watt():.2f}",
        }


class BaselinePlatform(Platform):
    """Shared conv-report assembly for the three rebuilt baselines.

    Subclasses provide the backend accelerator plus the cycle/throughput
    arithmetic; the power breakdown always comes from the backend's
    ``average_power_w``.
    """

    supports_conv = True
    #: Default bit configuration of the baseline comparison (Fig. 9's
    #: rightmost [4, 2] point).
    DEFAULT_WEIGHT_BITS = 4

    def __init__(self, config: OISAConfig | None = None) -> None:
        super().__init__(config)
        self.backend = self._build_backend()
        self.name = self.backend.name

    def _build_backend(self):
        raise NotImplementedError

    def _conv_costs(self, workload: ConvWorkload) -> tuple[float, float, float]:
        """Return (cycles, compute_time_s, peak_throughput_tops)."""
        raise NotImplementedError

    def table1_row(self) -> dict:
        """Measured Table-I style entries on the reference workload.

        The rebuilt baselines have no literature row of their own (the
        paper compares them in Fig. 9), so this reports the adapter's
        structural flags plus the measured average power behind the same
        128x128 sensor scenario.
        """
        from repro.core.energy import resnet18_first_layer_workload

        cfg = self.config
        report = self.simulate_conv(resnet18_first_layer_workload(cfg))
        return {
            "technology_nm": self.technology_nm,
            "purpose": "1st-layer CNN",
            "compute_scheme": "in-pixel" if self.in_sensor else "off-sensor",
            "has_memory": self.has_memory,
            "has_nvm": self.has_nvm,
            "pixel_size_um": cfg.pixel_pitch_m * 1e6,
            "array_size": f"{cfg.pixel_rows}x{cfg.pixel_cols}",
            "frame_rate_fps": f"{report.frame_rate_fps:.0f}",
            "power_mw": f"{report.average_power_w * 1e3:.4f}",
            "efficiency_tops_per_watt": (
                f"{report.efficiency_tops_per_watt:.2f}"
                if report.efficiency_tops_per_watt > 0
                else "-"
            ),
        }

    def simulate_conv(
        self,
        workload: ConvWorkload,
        weight_bits: int | None = None,
        activation_bits: int = 2,
        frame_rate_hz: float | None = None,
        include_mapping: bool = False,
    ) -> SimulationReport:
        bits = weight_bits if weight_bits is not None else self.DEFAULT_WEIGHT_BITS
        rate = frame_rate_hz if frame_rate_hz is not None else 1000.0
        cycles, compute_s, tops = self._conv_costs(workload)
        breakdown = self.backend.average_power_w(
            workload,
            weight_bits=bits,
            activation_bits=activation_bits,
            frame_rate_hz=rate,
        )
        power = breakdown.total
        return SimulationReport(
            platform=self.name,
            workload=conv_workload_tag(workload),
            weight_bits=bits,
            compute_cycles=int(cycles),
            compute_time_s=compute_s,
            frame_energy_j=power / rate,
            average_power_w=power,
            breakdown=breakdown,
            peak_throughput_tops=tops,
            efficiency_tops_per_watt=(
                tops / power if power > 0 and tops > 0 else 0.0
            ),
            frame_rate_fps=rate,
        )


@register_platform("crosslight")
class CrosslightPlatform(BaselinePlatform):
    """CrossLight-like silicon-photonic PIS (separate banks + converters)."""

    def _build_backend(self) -> CrosslightAccelerator:
        return CrosslightAccelerator()

    def parameters(self) -> dict[str, object]:
        return {
            **super().parameters(),
            "weight_arms": self.backend.weight_arms,
            "laser_power_w": self.backend.config.laser_power_w,
        }

    def _conv_costs(self, workload: ConvWorkload) -> tuple[float, float, float]:
        cycles = self.backend.compute_cycles(workload)
        compute_s = cycles * self.config.mac_cycle_s
        tops = self.backend.peak_throughput_ops() / 1e12
        return cycles, compute_s, tops


@register_platform("appcip")
class AppCipPlatform(BaselinePlatform):
    """AppCiP-like analog processing-in-pixel platform."""

    in_sensor = True
    has_nvm = True
    technology_nm = 45

    def _build_backend(self) -> AppCipAccelerator:
        return AppCipAccelerator()

    def parameters(self) -> dict[str, object]:
        return {
            **super().parameters(),
            "analog_mac_energy_j": self.backend.config.analog_mac_energy_j,
        }

    def _conv_costs(self, workload: ConvWorkload) -> tuple[float, float, float]:
        cycles = workload.windows_per_channel
        compute_s = min(1.0 / self.backend.frame_rate_limit_hz(workload), 1.0)
        return cycles, compute_s, 0.0


@register_platform("asic")
class AsicPlatform(BaselinePlatform):
    """DaDianNao-like digital ASIC behind a conventional sensor."""

    technology_nm = 45

    def _build_backend(self) -> AsicAccelerator:
        return AsicAccelerator()

    def parameters(self) -> dict[str, object]:
        return {
            **super().parameters(),
            "num_tiles": self.backend.config.num_tiles,
        }

    def _conv_costs(self, workload: ConvWorkload) -> tuple[float, float, float]:
        macs = workload.total_macs
        peak = self.backend.peak_throughput_macs()
        compute_s = macs / peak
        tops = 2.0 * peak / 1e12
        return macs, compute_s, tops
