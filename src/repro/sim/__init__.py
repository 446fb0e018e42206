"""The paper's "custom in-house simulator" (Fig. 7, bottom-right box).

* :mod:`repro.sim.platforms` — latency/power/energy simulation of
  first-layer workloads: the platform registry, one adapter per evaluated
  platform (OISA + rebuilt baselines) behind a uniform
  ``simulate_conv``/``simulate_mlp`` interface, bound to one array
  configuration.  Iterate it with :func:`iter_platforms`.
* :mod:`repro.sim.accuracy` — the full Fig. 7 loop: quantization-aware
  training (NumPy substrate), first layer through the behavioral hardware,
  remaining layers as the behavioral DNN model, inference accuracy out.
* :mod:`repro.sim.reports` — typed result records and text rendering.
"""

from repro.sim.accuracy import (
    AccuracyResult,
    Table2Settings,
    evaluate_hardware_accuracy,
    run_table2,
    train_qat_model,
)
from repro.sim.faults import FaultSpec, FaultyOpticalCore
from repro.sim.fleet import FleetModel, FleetReport, RadioModel
from repro.sim.platforms import (
    Platform,
    get_platform,
    iter_platforms,
    platform_registry,
    register_platform,
)
from repro.sim.reports import SimulationReport, render_report
from repro.sim.stream import StreamReport, StreamSimulator

__all__ = [
    "AccuracyResult",
    "FaultSpec",
    "FaultyOpticalCore",
    "FleetModel",
    "FleetReport",
    "Platform",
    "RadioModel",
    "SimulationReport",
    "StreamReport",
    "StreamSimulator",
    "get_platform",
    "iter_platforms",
    "platform_registry",
    "register_platform",
    "Table2Settings",
    "evaluate_hardware_accuracy",
    "render_report",
    "run_table2",
    "train_qat_model",
]
