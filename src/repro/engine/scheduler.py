"""Event-driven frame scheduler with pluggable multi-tenant policies.

This module is the simulated-time half of the serving engine split out of
the old monolithic ``FrameServer.serve`` loop.  A :class:`FrameScheduler`
walks one event queue — frame arrivals plus node-free completions — and a
:class:`SchedulingPolicy` decides what runs where:

* :class:`GreedyFifoPolicy` (``"greedy"``) — the historical behaviour,
  transcribed verbatim: frames are considered in arrival order, a free
  node is picked with model affinity (else longest-idle), and a frame
  with no free node is dropped on the spot.  No queueing.  The default
  server configuration routes through this policy and is **bit-identical**
  to the pre-split engine (pinned by ``tests/goldens/serve_default.json``).
* :class:`EarliestDeadlinePolicy` (``"edf"``) — frames whose
  :class:`~repro.engine.admission.SloClass` allows queueing wait for a
  node and dispatch in absolute-deadline order (FIFO among equal
  deadlines); queued frames whose deadline passes before they can start
  are dropped as *expired*.
* :class:`SloAwarePolicy` (``"slo"``) — priority tiers with per-tenant
  weighted fair queuing inside each tier: the highest-priority non-empty
  tenant queues are served in proportion to their classes' WFQ weights
  (frame-count WFQ — deterministic, no service-time estimate needed),
  FIFO within a tenant.  Combined with admission backpressure this is
  the policy that protects interactive tenants through bursts.

Determinism contract: the event queue orders by (time, kind, sequence)
with node-free completions ahead of arrivals at the same instant; every
tie-break is explicit (request index, enqueue sequence, tenant name), so
a fixed (seed, scenario, policy) triple reproduces the same
``ServeReport`` bit-for-bit — there is no wall-clock dependence in any
simulated quantity.  The emitted schedule — ``(request idx, node, model,
degradation tag)`` in dispatch order — is the whole contract of the host
compute step: the server's per-chunk loop consumes it verbatim and
never feeds back into scheduling.  A schedule-only serve
(``compute=False``) stops after this step.

The optional health, chaos, retry, spare and brownout layers attach
through one :class:`ServeLayers` seam whose base class is the plain path.

Units: all event times in *simulated* seconds (the ``StreamEvent``
clock).  The scheduler reads no host clock; the server times the whole
``serve`` call once (``ServeReport.wall_clock_s``).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.engine.admission import (
    PASS_THROUGH,
    AdmissionController,
    SloClass,
)
from repro.sim.stream import StreamEvent, StreamReport

#: Busy/free float tolerance — same constant the pre-split engine used.
_EPS = 1e-12

#: Event kinds, ordered so completions process before arrivals that land
#: on the same instant (a freed node should take a queued earlier frame
#: before a brand-new arrival claims it), and retries after both (a
#: re-dispatch never jumps ahead of same-instant fresh traffic).
_NODE_FREE = 0
_ARRIVAL = 1
_RETRY = 2


class QueuedFrame(NamedTuple):
    """One admitted-but-waiting frame in a policy queue (a named tuple:
    one is built per arrival)."""

    index: int
    model_key: str
    tenant: str
    arrival_s: float
    slo: SloClass
    #: Absolute completion deadline on the stream clock (``inf`` = none).
    deadline_s: float
    #: Re-dispatch count (0 = first dispatch); bumped by the failover
    #: layer when a node loss kills the frame in flight.
    attempt: int = 0


class SchedulingPolicy:
    """Node selection + (optional) queue discipline.

    Subclasses with ``queueing = False`` only ever implement
    :meth:`select_node`; queueing policies additionally buffer frames via
    :meth:`enqueue` and surface them in policy order via :meth:`pop_next`.
    A policy instance holds per-serve queue state — :meth:`reset` runs at
    the start of every ``serve`` call.
    """

    #: Registry key / display name.
    name: str = "policy"
    #: Whether frames may wait for a node instead of dropping.
    queueing: bool = False

    def reset(self) -> None:
        """Clear per-stream queue state (start of a ``serve`` call)."""

    def select_node(self, nodes, arrival_s: float, model_key: str):
        """Free node with model affinity, else the longest-idle free node.

        Verbatim the pre-split ``FrameServer._pick_node`` — every policy
        shares it so placement stays bit-identical on the greedy path.
        """
        free = [n for n in nodes if arrival_s >= n.free_at - _EPS]
        if not free:
            return None
        for node in free:
            if node.active_model == model_key:
                return node
        return min(free, key=lambda node: node.free_at)

    # -- queue surface (queueing policies only) ------------------------
    def enqueue(self, item: QueuedFrame) -> None:
        raise NotImplementedError(f"{self.name} does not queue")

    def requeue(self, item: QueuedFrame) -> None:
        """Put a popped frame back (dispatch aborted, e.g. node went busy)."""
        raise NotImplementedError(f"{self.name} does not queue")

    def pop_next(self, now_s: float) -> QueuedFrame | None:
        """Next frame in policy order, or ``None`` when the queue is empty."""
        raise NotImplementedError(f"{self.name} does not queue")

    def on_dispatched(self, item: QueuedFrame) -> None:
        """Fairness bookkeeping hook; called once per dispatched frame."""

    def queue_depth(self, min_priority: int | None = None) -> int:
        """Queued frames (optionally only those at ``>= min_priority``)."""
        return 0

    def drain(self):
        """Yield every still-queued frame (end-of-stream accounting)."""
        return ()


class GreedyFifoPolicy(SchedulingPolicy):
    """Arrival-ordered, drop-if-busy — the historical engine behaviour."""

    name = "greedy"
    queueing = False


class EarliestDeadlinePolicy(SchedulingPolicy):
    """Queue frames and dispatch by earliest absolute deadline.

    Frames without a deadline sort last (``inf``) and act as FIFO
    background traffic; ties break on enqueue order.
    """

    name = "edf"
    queueing = True

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, QueuedFrame]] = []
        self._sequence = 0

    def reset(self) -> None:
        self._heap = []
        self._sequence = 0

    def enqueue(self, item: QueuedFrame) -> None:
        heapq.heappush(self._heap, (item.deadline_s, self._sequence, item))
        self._sequence += 1

    def requeue(self, item: QueuedFrame) -> None:
        # Re-inserting with a fresh sequence keeps deadline order exact;
        # only equal-deadline FIFO order can rotate, and only when a
        # dispatch was aborted by a health recalibration.
        self.enqueue(item)

    def pop_next(self, now_s: float) -> QueuedFrame | None:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def queue_depth(self, min_priority: int | None = None) -> int:
        if min_priority is None:
            return len(self._heap)
        return sum(
            1 for _, _, item in self._heap if item.slo.priority >= min_priority
        )

    def drain(self):
        while self._heap:
            yield heapq.heappop(self._heap)[2]


class SloAwarePolicy(SchedulingPolicy):
    """Priority tiers + per-tenant weighted fair queuing within a tier.

    Tenants accumulate normalized service (``1/weight`` per dispatched
    frame); among the non-empty tenants whose head frames sit in the
    highest priority tier, the one with the least normalized service goes
    next (ties: lexicographic tenant name).  FIFO within a tenant.
    """

    name = "slo"
    queueing = True

    def __init__(self) -> None:
        self._queues: dict[str, deque[QueuedFrame]] = {}
        self._vwork: dict[str, float] = {}

    def reset(self) -> None:
        self._queues = {}
        self._vwork = {}

    def enqueue(self, item: QueuedFrame) -> None:
        self._queues.setdefault(item.tenant, deque()).append(item)

    def requeue(self, item: QueuedFrame) -> None:
        self._queues.setdefault(item.tenant, deque()).appendleft(item)

    def pop_next(self, now_s: float) -> QueuedFrame | None:
        candidates = [
            (queue[0], tenant)
            for tenant, queue in self._queues.items()
            if queue
        ]
        if not candidates:
            return None
        top = max(head.slo.priority for head, _ in candidates)
        tenant = min(
            (
                (self._vwork.get(name, 0.0), name)
                for head, name in candidates
                if head.slo.priority == top
            )
        )[1]
        return self._queues[tenant].popleft()

    def on_dispatched(self, item: QueuedFrame) -> None:
        self._vwork[item.tenant] = (
            self._vwork.get(item.tenant, 0.0) + 1.0 / item.slo.weight
        )

    def queue_depth(self, min_priority: int | None = None) -> int:
        items = (
            item for queue in self._queues.values() for item in queue
        )
        if min_priority is None:
            return sum(1 for _ in items)
        return sum(1 for item in items if item.slo.priority >= min_priority)

    def drain(self):
        for tenant in sorted(self._queues):
            queue = self._queues[tenant]
            while queue:
                yield queue.popleft()


#: Policy registry for the CLI / workloads layer.
POLICIES: dict[str, type[SchedulingPolicy]] = {
    GreedyFifoPolicy.name: GreedyFifoPolicy,
    EarliestDeadlinePolicy.name: EarliestDeadlinePolicy,
    SloAwarePolicy.name: SloAwarePolicy,
}


def scheduling_policy(spec: "str | SchedulingPolicy") -> SchedulingPolicy:
    """Resolve a policy name or pass an instance through."""
    if isinstance(spec, SchedulingPolicy):
        return spec
    cls = POLICIES.get(str(spec).strip().lower())
    if cls is None:
        raise ValueError(
            f"unknown scheduling policy {spec!r}; known: "
            f"{', '.join(sorted(POLICIES))}"
        )
    return cls()


@dataclass
class SchedulingResult:
    """What one scheduler run decided (compute happens afterwards)."""

    stream: StreamReport
    #: (request idx, node id, model key, degradation tag) per admitted frame,
    #: in dispatch order — the compute phase batches over this.
    schedule: list[tuple[int, int, str, int]] = field(default_factory=list)
    #: request idx -> (node id, event, tag); node id -1 for drops.
    placements: dict[int, tuple[int, StreamEvent, int]] = field(
        default_factory=dict
    )
    #: Indices rejected by admission backpressure.
    shed: set[int] = field(default_factory=set)
    #: Indices queued but never dispatched (deadline passed / stream end).
    expired: set[int] = field(default_factory=set)
    #: Indices killed in flight by a node loss and never delivered
    #: (retries disabled, refused or exhausted).
    lost: set[int] = field(default_factory=set)
    #: request idx -> model key actually dispatched, recorded only when it
    #: differs from the requested key (brownout reduced-bits variants).
    served: dict[int, str] = field(default_factory=dict)


class ServeLayers:
    """The seam the optional serving layers plug into; this base class is
    the plain path, every hook a no-op (or the plain backpressure rule).

    :class:`FrameScheduler` calls the hooks unconditionally: one per
    arrival and one per dispatch on the plain path.  The layered
    implementation is :class:`~repro.engine.failover.FailoverCoordinator`
    (health with its chaos timeline, retry, spares, brownout).  Only it
    fires the node-loss callback, so only it is asked the loss-path
    questions (``schedule_retry``, ``request_spare``).
    """

    #: Whether a loss can kill a frame in flight (and so revoke it).
    tracks_in_flight = False

    def bind(self, on_node_lost) -> None:
        """Start of a run: ``on_node_lost(node, time_s, until_s)``."""

    def advance(self, now_s: float) -> None:
        """Bring layer state up to ``now_s`` outside an arrival."""

    def admit(self, scheduler: FrameScheduler, now_s: float, item) -> bool:
        """Whether the arrival ``item`` is admitted (``False`` sheds it)."""
        slo = item.slo
        return slo.max_queue_s is None or not scheduler.admission.sheds(
            item.model_key, scheduler.wait_estimate(now_s, slo)
        )

    def dispatch(self, item, node, start_s: float) -> tuple[str, int, float]:
        """``(served model key, degradation tag, latency factor)``."""
        return item.model_key, 0, 1.0

    def finish(self, result: SchedulingResult, revoked: dict) -> None:
        """End of a run; ``revoked`` maps each schedule position a node
        loss revoked to its (request idx, spent energy [J]), in loss
        order."""

    def fault_core(self, node, model_key: str, tag: int):
        """The core frames tagged ``tag`` compute through (``None``: as
        programmed)."""
        return None

    def report_fields(self) -> dict:
        """The ``ServeReport`` fields this layer fills."""
        return {}


class FrameScheduler:
    """One ``serve`` call's simulated-time admission + placement engine.

    Parameters
    ----------
    nodes:
        The server's ``_Node`` list (mutated: ``free_at``, ``frames``,
        ``active_model``).
    models:
        ``{model_key: _ModelEntry}`` — pipeline/timing factories.
    policy:
        A :class:`SchedulingPolicy` instance (reset per run).
    layers:
        The :class:`ServeLayers` this run calls; the base class keeps the
        default path byte-identical to the pre-resilience engine.
    admission:
        The :class:`~repro.engine.admission.AdmissionController`.
    """

    def __init__(
        self,
        nodes,
        models,
        policy: SchedulingPolicy,
        layers: ServeLayers,
        admission: AdmissionController | None = None,
    ) -> None:
        self.nodes = nodes
        self.models = models
        self.policy = policy
        self.admission = admission if admission is not None else PASS_THROUGH
        self.layers = layers
        #: Rolling service-time hint [s] for the backpressure wait estimate
        #: (last dispatched frame's pipelined service time).
        self._service_hint_s = 0.0

    # ------------------------------------------------------------------
    # Public entry
    # ------------------------------------------------------------------
    def run(self, requests, arrivals: list[float]) -> SchedulingResult:
        """Admit and place every request; returns the scheduling decisions.

        ``arrivals`` is the resolved arrival time per request index.  The
        result's ``stream.events`` are ordered by (arrival, index) — the
        same order the pre-split engine appended them in — regardless of
        dispatch order, and ``total_energy_j`` accumulates in dispatch
        order (identical to arrival order on the non-queueing path).
        """
        self.policy.reset()
        result = SchedulingResult(stream=StreamReport())
        self._result = result
        self._requests = requests
        #: Node ids with a completion event currently in the heap — one
        #: pending event per node keeps the heap linear in dispatches.
        self._free_event_pending: set[int] = set()
        #: node id -> {request idx: (finish time, item, schedule position,
        #: dispatch energy [J])} for dispatched frames a loss may revoke.
        self._in_flight: dict[int, dict[int, tuple]] = {}
        #: Schedule position -> (request idx, energy [J]) of each dispatch
        #: a node loss revoked (filtered from the schedule at the end).
        self._revoked: dict[int, tuple[int, float]] = {}
        self._retry_items: dict[int, QueuedFrame] = {}
        self._retry_serial = 0
        #: (model key, node id, frame shape) -> dispatch constants; see
        #: :meth:`_resolve_constants`.
        self._constants: dict[tuple, tuple] = {}
        self.layers.bind(self._on_node_lost)

        order = sorted(range(len(requests)), key=arrivals.__getitem__)
        heap: list[tuple[float, int, int]] = [
            (arrivals[index], _ARRIVAL, index) for index in order
        ]
        heapq.heapify(heap)
        self._heap = heap
        while heap:
            time_s, kind, key = heapq.heappop(heap)
            if kind == _NODE_FREE:
                self._on_node_free(time_s, key)
            elif kind == _RETRY:
                self._on_retry(time_s, key)
            else:
                self._on_arrival(time_s, key)
        for item in self.policy.drain():
            self._drop(item.index, item.arrival_s, expired=True)

        if self._revoked:
            result.schedule = [
                entry
                for position, entry in enumerate(result.schedule)
                if position not in self._revoked
            ]
        self.layers.finish(result, self._revoked)

        # Rebuild the event list in (arrival, index) order — bit-identical
        # to the old single-loop append order on the greedy path, and a
        # stable convention for queueing policies.
        result.stream.events = [
            result.placements[index][1] for index in order
        ]
        return result

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, now_s: float, index: int) -> None:
        request = self._requests[index]
        model_key = request.model_key
        slo = self.admission.slo_for(model_key)
        tenant = getattr(request, "tenant", None) or model_key
        item = QueuedFrame(
            index, model_key, tenant, now_s, slo, slo.absolute_deadline_s(now_s)
        )
        if not self.layers.admit(self, now_s, item):
            self._drop(index, now_s, shed=True)
            return
        node = self.policy.select_node(self.nodes, now_s, model_key)
        if node is None:
            if not self.policy.queueing or slo.drop_policy == "busy":
                self._drop(index, now_s)
                return
            self.policy.enqueue(item)
            # Every busy node needs a completion event on the heap, or
            # this frame can strand: a health recalibration extends
            # ``free_at`` *outside* a dispatch (even on an idle node), so
            # the dispatch-time push alone does not cover it.
            for candidate in self.nodes:
                self._push_free_event(candidate)
            return
        self._dispatch(item, node, now_s)

    def _push_free_event(self, node) -> None:
        """Schedule ``node``'s next completion (at most one pending)."""
        if not math.isfinite(node.free_at):
            return  # lost for good: it will never complete
        if node.node_id in self._free_event_pending:
            return
        self._free_event_pending.add(node.node_id)
        heapq.heappush(self._heap, (node.free_at, _NODE_FREE, node.node_id))

    def _on_node_free(self, now_s: float, node_id: int) -> None:
        self._free_event_pending.discard(node_id)
        node = self.nodes[node_id]
        if not math.isfinite(node.free_at):
            return  # lost for good (chaos): nothing will dispatch here
        if now_s < node.free_at - _EPS:
            # Stale completion: the node's busy window was extended (e.g.
            # a health recalibration) after this event was scheduled.
            self._push_free_event(node)
            return
        if not self.policy.queueing:
            # Nothing waits under a drop-if-busy policy; the event came
            # from a warm spare's bring-up.
            return
        item = self._pop_live(now_s)
        if item is None:
            return
        self.layers.advance(now_s)
        if now_s < node.free_at - _EPS or not math.isfinite(node.free_at):
            # A layer just took this node offline; put the frame back and
            # wait for the node's next completion.
            self.policy.requeue(item)
            self._push_free_event(node)
            return
        self._dispatch(item, node, now_s)

    def _pop_live(self, now_s: float) -> QueuedFrame | None:
        """Next queued frame whose deadline can still be met (expired
        frames drop on the way)."""
        while True:
            item = self.policy.pop_next(now_s)
            if item is None:
                return None
            if item.deadline_s < now_s - _EPS:
                self._drop(item.index, item.arrival_s, expired=True)
                continue
            return item

    # ------------------------------------------------------------------
    # Outcomes
    # ------------------------------------------------------------------
    def _drop(
        self,
        index: int,
        arrival_s: float,
        shed: bool = False,
        expired: bool = False,
        lost: bool = False,
    ) -> None:
        event = StreamEvent(index, arrival_s, arrival_s, arrival_s, True, False)
        self._result.placements[index] = (-1, event, 0)
        if shed:
            self._result.shed.add(index)
        elif expired:
            self._result.expired.add(index)
        elif lost:
            self._result.lost.add(index)

    # ------------------------------------------------------------------
    # Node loss reaping + retry events (reached only through a layer)
    # ------------------------------------------------------------------
    def _on_node_lost(self, node, now_s: float, until_s: float) -> None:
        """Node-loss callback: reap the node's in-flight frames, retry or
        drop each, and let the layer bring up a spare.

        Reaping revokes the dispatch (schedule entry filtered, per-node
        frame count decremented) but keeps its already-spent energy in the
        stream total — the work happened; the layer itemises the waste.
        """
        entries = self._in_flight.get(node.node_id, {})
        victims = sorted(
            index
            for index, (finish_s, *_) in entries.items()
            if finish_s > now_s + _EPS
        )
        for index in victims:
            _, item, position, energy_j = entries.pop(index)
            self._revoked[position] = (index, energy_j)
            node.frames -= 1
            retry_at = self.layers.schedule_retry(
                item, now_s, self._service_hint_s
            )
            self._retry_or_drop(item, retry_at)
        spare = self.layers.request_spare(node, now_s)
        if spare is not None:
            # The spare's bring-up completion must be an event, or
            # queued frames strand until the next organic completion.
            self._push_free_event(spare)

    def _retry_or_drop(self, item: QueuedFrame, retry_at_s) -> None:
        """Re-dispatch ``item`` at ``retry_at_s``; ``None`` abandons it."""
        if retry_at_s is None:
            self._drop(item.index, item.arrival_s, lost=True)
            return
        serial = self._retry_serial
        self._retry_serial += 1
        self._retry_items[serial] = item._replace(attempt=item.attempt + 1)
        heapq.heappush(self._heap, (retry_at_s, _RETRY, serial))

    def _on_retry(self, now_s: float, serial: int) -> None:
        """One retry event: re-dispatch, re-queue, back off, or abandon."""
        item = self._retry_items.pop(serial)
        self.layers.advance(now_s)
        if item.deadline_s < now_s - _EPS:
            self._drop(item.index, item.arrival_s, lost=True)
            return
        node = self.policy.select_node(self.nodes, now_s, item.model_key)
        if node is None:
            if self.policy.queueing and item.slo.drop_policy != "busy":
                self.policy.enqueue(item)
                for candidate in self.nodes:
                    self._push_free_event(candidate)
                return
            retry_at = self.layers.schedule_retry(
                item, now_s, self._service_hint_s
            )
            self._retry_or_drop(item, retry_at)
            return
        self._dispatch(item, node, now_s)

    def _dispatch(self, item: QueuedFrame, node, start_s: float) -> None:
        key, tag, factor = self.layers.dispatch(item, node, start_s)
        if key != item.model_key:
            # A layer served another key (brownout reduced-bits variant):
            # SLO accounting stays on the requested key, transport and
            # energy on the served one.
            self._result.served[item.index] = key
        elif item.attempt:
            # A retry served as requested clears an earlier reduced key.
            self._result.served.pop(item.index, None)
        entry = self.models[key]
        shape = self._requests[item.index].frame.shape
        constants = self._constants.get((key, node.node_id, shape))
        if constants is None:
            constants = self._resolve_constants(entry, node, shape)

        remapped = node.active_model != key
        steady, remap = constants
        sequential_s, pipelined_s, energy_j = remap if remapped else steady
        if factor != 1.0:
            # Chaos latency spikes stretch the dispatch service window;
            # outside a spike the untouched timings keep the no-chaos
            # path bit-identical.
            sequential_s *= factor
            pipelined_s *= factor
        finish = start_s + sequential_s
        node.free_at = start_s + pipelined_s
        self._service_hint_s = pipelined_s
        node.active_model = key
        node.frames += 1
        event = StreamEvent(
            item.index, item.arrival_s, start_s, finish, False, remapped
        )
        self._result.stream.total_energy_j += energy_j
        self._result.placements[item.index] = (node.node_id, event, tag)
        self._result.schedule.append((item.index, node.node_id, key, tag))
        if self.layers.tracks_in_flight:
            self._in_flight.setdefault(node.node_id, {})[item.index] = (
                finish,
                item,
                len(self._result.schedule) - 1,
                energy_j,
            )
        self.policy.on_dispatched(item)
        if self.policy.queueing:
            self._push_free_event(node)

    def _resolve_constants(self, entry, node, shape: tuple[int, ...]):
        """``(steady, remap)`` as ``(sequential_s, pipelined_s, energy_j)``
        of ``entry`` on ``node`` for one frame shape, memoized per run.

        The first sighting of a model on a node builds its pipeline (and
        programs the die); after that ``pipeline_for`` is a pure lookup,
        so a memo hit may skip it.
        """
        pipeline = node.pipeline_for(entry)
        steady, remap, steady_j, remap_j = entry.timing_for(pipeline, shape)
        constants = (
            (steady.sequential_s, steady.pipelined_s, steady_j),
            (remap.sequential_s, remap.pipelined_s, remap_j),
        )
        self._constants[(entry.key, node.node_id, shape)] = constants
        return constants

    # ------------------------------------------------------------------
    # Backpressure estimate
    # ------------------------------------------------------------------
    def wait_estimate(self, now_s: float, slo: SloClass) -> float:
        """Rough queue delay a new arrival of ``slo`` would see [s].

        Earliest node availability plus the competing backlog (queued
        frames at equal-or-higher priority) spread across the fleet at the
        last observed service time.  Deterministic and cheap — admission
        sheds on this, it never affects the default pass-through path.
        """
        soonest = min(node.free_at for node in self.nodes)
        wait = max(0.0, soonest - now_s) if math.isfinite(soonest) else math.inf
        ahead = self.policy.queue_depth(min_priority=slo.priority)
        if ahead and self._service_hint_s > 0.0:
            wait += ahead * self._service_hint_s / max(len(self.nodes), 1)
        return wait


__all__ = [
    "POLICIES",
    "EarliestDeadlinePolicy",
    "FrameScheduler",
    "GreedyFifoPolicy",
    "QueuedFrame",
    "SchedulingPolicy",
    "SchedulingResult",
    "ServeLayers",
    "SloAwarePolicy",
    "scheduling_policy",
]
