"""Multi-tenant frame-serving engine (scheduler + admission + workloads).

* :mod:`repro.engine.cache` — weight-program cache keyed by (kernel set,
  weight bits, die seed); kernel swaps stop re-running the AWC mapping
  chain, and :meth:`WeightProgramCache.invalidate_die` supports the
  online-recalibration path.
* :mod:`repro.engine.store` — content-addressed on-disk
  :class:`ProgramStore`: sha256-verified npz records of programmed
  weights the cache reads through / writes behind, so a second run
  against the same store programs nothing.
* :mod:`repro.engine.scheduler` — the simulated-time event loop and the
  pluggable policies: greedy-FIFO (historical drop-if-busy behaviour),
  earliest-deadline-first, and priority + per-tenant weighted fair
  queuing (``"slo"``).
* :mod:`repro.engine.admission` — per-model :class:`SloClass` service
  levels (deadline, priority, drop policy, WFQ weight), backpressure
  load shedding and the per-class :class:`SloReport` accounting.
* :mod:`repro.engine.workloads` — scenario generators over the model zoo
  (LeNet / MLP / VGG-16 / ResNet-18 first layers at several bit widths):
  Poisson bursts, diurnal ramps, multi-tenant mixes, and the historical
  two-LeNet demo as the ``default`` scenario.
* :mod:`repro.engine.server` — :class:`FrameServer`: the thin facade
  wiring cache + health + scheduler, micro-batched compute through
  :class:`~repro.core.pipeline.HardwareFirstLayerPipeline`, fleet
  transport budgets, and :meth:`FrameServer.warmup`.  The default
  configuration (greedy policy, no SLO classes, no fault profile) is
  bit-identical to the pre-split engine.
* :mod:`repro.engine.health` — degraded-mode serving: named
  :class:`FaultProfile` scenarios, the :class:`SnrWatchdog` precision
  monitor, and the :class:`HealthMonitor` that samples thermal drift and
  injected upsets mid-stream, routes frames around recalibrating nodes
  and restores bit-identical programs after recovery.
* :mod:`repro.engine.chaos` — deterministic fleet-scale fault injection:
  named :class:`ChaosPlan` schedules (node loss, region outages,
  correlated upsets, cache storms, latency spikes) resolved to
  seed-reproducible :class:`ChaosEvent` timelines replayed by the health
  monitor.
* :mod:`repro.engine.failover` — surviving the chaos: deadline-aware
  :class:`RetryPolicy` backoff, warm-standby spares (cache-hit
  activation, bit-identical programs), and the
  :class:`BrownoutController` degradation-tier admission ladder.
* :mod:`repro.engine.router` — deterministic tenant-to-shard routing:
  rendezvous (HRW) hashing with draining-shard spillover.
* :mod:`repro.engine.controlplane` — the sharded fleet control plane:
  named shards over plain frame servers, zoo placement, shard drains,
  and the windowed :class:`Autoscaler` (capacity-model scale-up,
  dwell-hysteresis scale-down) with a byte-deterministic
  scaling-decision audit trail.  One serve path: the plain server's
  validation step, routing, per-shard (per-window) serves and one
  merge; a 1-shard plane serves through it bit-identically to the
  plain server.
"""

from repro.engine.admission import (
    AdmissionController,
    SloClass,
    SloClassStats,
    SloReport,
)
from repro.engine.cache import CacheStats, WeightProgramCache
from repro.engine.controlplane import (
    Autoscaler,
    AutoscalerConfig,
    ControlPlane,
    ControlPlaneReport,
    ScalingDecision,
    Shard,
)
from repro.engine.chaos import (
    CHAOS_KINDS,
    ChaosEvent,
    ChaosPlan,
    ChaosSpec,
    ChaosTimeline,
)
from repro.engine.failover import (
    BROWNOUT_TIERS,
    BrownoutController,
    BrownoutReport,
    BrownoutTransition,
    FailoverCoordinator,
    ResilienceReport,
    RetryPolicy,
    SpareActivation,
    availability,
    recovery_time_s,
)
from repro.engine.health import (
    FaultProfile,
    HealthEvent,
    HealthMonitor,
    HealthReport,
    SnrWatchdog,
)
from repro.engine.scheduler import (
    POLICIES,
    EarliestDeadlinePolicy,
    FrameScheduler,
    GreedyFifoPolicy,
    SchedulingPolicy,
    SloAwarePolicy,
    scheduling_policy,
)
from repro.engine.router import RendezvousRouter, rendezvous_score
from repro.engine.server import (
    FrameRequest,
    FrameResponse,
    FrameServer,
    ServeReport,
)
from repro.engine.store import (
    STORE_SCHEMA_VERSION,
    ProgramStore,
    StoreStats,
)
from repro.engine.workloads import (
    ModelSpec,
    Scenario,
    build_scenario,
    models_scenario,
    scenario_registry,
)

__all__ = [
    "BROWNOUT_TIERS",
    "CHAOS_KINDS",
    "POLICIES",
    "AdmissionController",
    "Autoscaler",
    "AutoscalerConfig",
    "BrownoutController",
    "BrownoutReport",
    "BrownoutTransition",
    "CacheStats",
    "ChaosEvent",
    "ChaosPlan",
    "ChaosSpec",
    "ChaosTimeline",
    "ControlPlane",
    "ControlPlaneReport",
    "EarliestDeadlinePolicy",
    "FailoverCoordinator",
    "FaultProfile",
    "FrameRequest",
    "FrameResponse",
    "FrameScheduler",
    "FrameServer",
    "GreedyFifoPolicy",
    "HealthEvent",
    "HealthMonitor",
    "HealthReport",
    "ModelSpec",
    "ProgramStore",
    "RendezvousRouter",
    "ResilienceReport",
    "RetryPolicy",
    "STORE_SCHEMA_VERSION",
    "ScalingDecision",
    "Scenario",
    "ServeReport",
    "StoreStats",
    "SchedulingPolicy",
    "Shard",
    "SloAwarePolicy",
    "SloClass",
    "SloClassStats",
    "SloReport",
    "SnrWatchdog",
    "SpareActivation",
    "WeightProgramCache",
    "availability",
    "build_scenario",
    "models_scenario",
    "recovery_time_s",
    "rendezvous_score",
    "scenario_registry",
    "scheduling_policy",
]
