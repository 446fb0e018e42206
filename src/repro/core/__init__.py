"""OISA core architecture — the paper's primary contribution.

Public surface:

* :class:`~repro.core.config.OISAConfig` — every structural constant of
  Section III with the paper's values as defaults.
* :class:`~repro.core.accelerator.OISAAccelerator` — program kernels,
  process frames, read performance summaries.
* :mod:`repro.core.mapping` — kernel-to-bank allocation and the
  MACs-per-cycle arithmetic (3600/2000/3920).
* :class:`~repro.core.opc.OpticalProcessingCore` — the photonic MAC with
  the full AWC/crosstalk/BPD non-ideality chain.
* :class:`~repro.core.energy.OISAEnergyModel` — power, energy, area and
  efficiency accounting.
* :class:`~repro.core.pipeline.HardwareFirstLayerPipeline` — QAT model
  evaluation with the first layer in the optics (Fig. 7 flow).
"""

from repro.core.accelerator import FrameResult, OISAAccelerator
from repro.core.awc import AwcWeightMapper
from repro.core.calibration import CalibratedAwcMapper
from repro.core.config import PAPER_CONFIG, SUPPORTED_KERNEL_SIZES, OISAConfig
from repro.core.thermal import ThermalModel
from repro.core.controller import FrameTiming, TimingController
from repro.core.energy import (
    AreaBreakdown,
    OISAEnergyModel,
    PowerBreakdown,
    default_plan,
    resnet18_first_layer_workload,
)
from repro.core.mapping import (
    ConvWorkload,
    MappingPlan,
    MlpWorkload,
    kernels_per_bank,
    macs_per_cycle,
    plan_convolution,
    plan_mlp,
)
from repro.core.opc import OpticalProcessingCore, ProgrammedWeights
from repro.core.pipeline import HardwareFirstLayerPipeline
from repro.core.snr_budget import SnrBudget, SnrReport
from repro.core.vam import ActivationModulator

__all__ = [
    "ActivationModulator",
    "AreaBreakdown",
    "AwcWeightMapper",
    "CalibratedAwcMapper",
    "ConvWorkload",
    "ThermalModel",
    "FrameResult",
    "FrameTiming",
    "HardwareFirstLayerPipeline",
    "MappingPlan",
    "MlpWorkload",
    "OISAAccelerator",
    "OISAConfig",
    "OISAEnergyModel",
    "OpticalProcessingCore",
    "PAPER_CONFIG",
    "PowerBreakdown",
    "ProgrammedWeights",
    "SUPPORTED_KERNEL_SIZES",
    "SnrBudget",
    "SnrReport",
    "TimingController",
    "default_plan",
    "kernels_per_bank",
    "macs_per_cycle",
    "plan_convolution",
    "plan_mlp",
    "resnet18_first_layer_workload",
]
