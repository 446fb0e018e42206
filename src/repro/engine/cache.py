"""Weight-program cache: AWC mapping results keyed by kernel set.

Programming the OPC is the expensive half of serving: the AWC realization,
per-arm crosstalk solve and tuning-budget pricing walk every mapped MR in
Python.  Steady-state video amortises it away, but a *serving* workload
swaps kernel sets whenever the request mix changes model.  The cache stores
each :class:`~repro.core.opc.ProgrammedWeights` record under a digest of
(kernel set, quantizer scale, full architecture config, die seed, crosstalk
flag), so a swap back to a previously mapped set restores the realized
weights in O(1) via
:meth:`~repro.core.opc.OpticalProcessingCore.install`.

Keys are cheap to recompute: a :class:`~repro.core.opc.KernelSet` carries
the sha256 state over its tensor, shape and scale, built once per kernel
set (:func:`repro.core.pipeline.kernel_set`), and :meth:`WeightProgramCache.
key_for` copies that state and adds only the die's part.  The split does
not change the digest — it equals one sha256 over every field in order —
so it never shows in :class:`~repro.engine.store.ProgramStore` filenames.

The die seed is part of the key on purpose: two chips with different AWC
mismatch patterns realize the same ideal kernel set differently, so their
programs must never be shared.  A calibrated die (pre-distorted AWC,
:mod:`repro.core.calibration`) gets its own key space via the mapper's
``calibration_token``.

Invalidation: the online-recalibration path
(:mod:`repro.engine.health`) calls :meth:`WeightProgramCache.invalidate_die`
when a node's watchdog trips — the die's stale programs are dropped and
the next activation re-runs the mapping chain.  Because programming is
deterministic per (die, config, kernel set) — the scalar-reference
bit-identity contract of :mod:`repro.core.reference` — the reprogrammed
entries are bit-identical to the invalidated ones.  The sharded control
plane (:mod:`repro.engine.controlplane`) reuses the same hook for shard
drains: a drained shard's dies release their resident bytes back to the
shared budget.

Priority eviction: the control plane shares *one* cache (one byte
budget) across every shard, and pins the programs of recently routed
(tenant, model) pairs via :meth:`WeightProgramCache.set_priority`.
Eviction removes the lowest-priority, least-recently-used entry first —
a pinned program is only ever evicted once every unpinned entry is gone
and the budget still does not hold.  With no priorities set the order is
exactly the historical pure LRU.

On-disk tier: an attached :class:`~repro.engine.store.ProgramStore`
makes the cache read-through/write-behind.  A memory miss first tries
the store (an integrity-checked npz load instead of the mapping chain —
counted as a hit plus :attr:`CacheStats.store_hits`); a genuine miss
programs normally and persists the result.  Eviction stays strictly an
in-memory affair — an evicted entry's on-disk copy survives and the
next activation restores it from the store — while
:meth:`WeightProgramCache.invalidate_die` drops the die's programs from
*both* layers (a recalibrated die's artifacts are stale everywhere).
Because programming is deterministic, a store-restored record is
byte-equal to a freshly programmed one, so every bit-identity golden
holds with or without a store attached.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.config import OISAConfig
from repro.core.opc import KernelSet, OpticalProcessingCore, ProgrammedWeights
from repro.engine.store import ProgramStore

#: ``repr(config)`` bytes per live config object, keyed by ``id``.  The
#: memo is by identity, not equality: ``OISAConfig`` compares ``0.0`` and
#: ``-0.0`` fields equal, yet their reprs (and so their keys) differ.
_config_reprs: dict[int, tuple[weakref.ref, bytes]] = {}


def _config_repr(config: OISAConfig) -> bytes:
    """``repr(config).encode()``, computed once per config object."""
    ident = id(config)
    entry = _config_reprs.get(ident)
    if entry is None or entry[0]() is not config:
        # The entry leaves with its config, before the id can be reused.
        ref = weakref.ref(
            config, lambda _, ident=ident: _config_reprs.pop(ident, None)
        )
        entry = _config_reprs[ident] = (ref, repr(config).encode())
    return entry[1]


@dataclass
class CacheStats:
    """Hit/miss counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Hits served by restoring an entry from the attached on-disk
    #: :class:`~repro.engine.store.ProgramStore` (a subset of ``hits``;
    #: ``misses`` keeps meaning "mapping chains actually run").
    store_hits: int = 0
    #: Entries dropped by health-driven :meth:`WeightProgramCache.invalidate_die`
    #: calls (recalibration after a fault or thermal re-trim).
    invalidations: int = 0
    #: Bytes of :class:`~repro.core.opc.ProgrammedWeights` tensors
    #: currently resident (ideal + realized ndarray payloads per entry).
    bytes_cached: int = 0
    #: Cumulative bytes removed by capacity/budget evictions (not by
    #: invalidations or :meth:`WeightProgramCache.clear`).
    bytes_evicted: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0


class WeightProgramCache:
    """LRU cache of OPC weight programs.

    Parameters
    ----------
    capacity:
        Maximum number of cached programs; ``None`` means unbounded.  One
        entry holds the realized weight tensor (same size as the kernel
        set), so bound this when serving many models.
    memory_budget_bytes:
        Byte budget over the cached :class:`~repro.core.opc.
        ProgrammedWeights` tensors (see :meth:`entry_nbytes`); ``None``
        means unbounded.  Entries are LRU-evicted until the budget holds,
        independently of (and in addition to) the entry-count
        ``capacity`` — the first slice of the roadmap's cache-budgeted
        eviction for the sharded control plane.  A single entry larger
        than the whole budget is kept while it is the only resident
        entry (evicting the program that was just installed would make
        every swap a cold remap — worse than briefly exceeding the
        budget) and becomes first in line once anything newer lands.
    store:
        Optional on-disk tier (:class:`~repro.engine.store.ProgramStore`)
        making the cache read-through/write-behind: memory misses try an
        integrity-checked disk load before programming, and freshly
        programmed entries are persisted.  Eviction never touches the
        disk copy; :meth:`invalidate_die` invalidates both layers.
    """

    def __init__(
        self,
        capacity: int | None = None,
        memory_budget_bytes: int | None = None,
        store: "ProgramStore | None" = None,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        if memory_budget_bytes is not None and memory_budget_bytes <= 0:
            raise ValueError(
                "memory_budget_bytes must be positive or None, got "
                f"{memory_budget_bytes}"
            )
        self.capacity = capacity
        self.memory_budget_bytes = memory_budget_bytes
        self.store = store
        self.stats = CacheStats()
        self._entries: OrderedDict[str, ProgrammedWeights] = OrderedDict()
        #: Die seed each entry was programmed on, for health-driven
        #: invalidation (a recalibrated die's old programs are stale).
        self._die_of: dict[str, int | None] = {}
        #: Resident byte size per entry (computed once at insert).
        self._nbytes_of: dict[str, int] = {}
        #: Eviction priority per key (0 = normal LRU, higher = pinned).
        #: Outlives residency on purpose: a pin set before the program is
        #: computed (preload-on-route) applies when the entry lands.
        self._priority_of: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def entry_nbytes(programmed: ProgrammedWeights) -> int:
        """Resident bytes of one program: its ndarray payloads.

        ``ideal`` and ``realized`` are the only per-entry tensors; the
        scale/tuning scalars are negligible and deliberately uncounted so
        the accounting matches what actually scales with the kernel set.
        """
        return int(programmed.ideal.nbytes) + int(programmed.realized.nbytes)

    @staticmethod
    def key_for(opc: OpticalProcessingCore, kernels: KernelSet) -> str:
        """Digest of the kernel set and everything that shapes its mapping.

        The kernel set's ``prefix`` already holds its tensor bytes, shape
        and scale; each die adds its part on a copy of that state.
        """
        digest = kernels.prefix.copy()
        # The full config repr: every architecture/device parameter shapes
        # the realization (AWC design, microring Q, WDM grid, ...), so two
        # differently configured cores must never share a program.
        digest.update(_config_repr(opc.config))
        digest.update(repr((opc.seed, opc.enable_crosstalk)).encode())
        # Calibrated AWC mappers (code pre-distortion, core/calibration)
        # realize different levels than the raw bank; their programs must
        # not be shared with an uncalibrated core of the same die.
        digest.update(
            repr(getattr(opc.awc, "calibration_token", None)).encode()
        )
        return digest.hexdigest()

    def get_or_program(
        self, opc: OpticalProcessingCore, kernels: KernelSet
    ) -> tuple[ProgrammedWeights, bool]:
        """Install a cached program or run the mapping chain once.

        Returns ``(programmed, hit)``.  On a hit the record is installed on
        ``opc`` without re-running AWC realization/crosstalk/tuning; on a
        miss the OPC programs ``kernels`` normally and the result is
        cached.
        """
        key = self.key_for(opc, kernels)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            opc.install(cached)
            return cached, True

        restored = self.store.load(key) if self.store is not None else None
        if restored is not None:
            self.stats.hits += 1
            self.stats.store_hits += 1
            self._insert(key, restored, opc.seed)
            opc.install(restored)
            return restored, True

        self.stats.misses += 1
        programmed = opc.program(kernels.weights, kernels.scale)
        self._insert(key, programmed, opc.seed)
        if self.store is not None:
            self.store.put(key, programmed, die=opc.seed)
        return programmed, False

    def has_program(
        self, opc: OpticalProcessingCore, kernels: KernelSet
    ) -> bool:
        """Whether a program is resident, without touching stats or LRU."""
        return self.key_for(opc, kernels) in self._entries

    def attach_store(self, store: ProgramStore) -> None:
        """Attach an on-disk tier after construction.

        Attaching the same store twice is a no-op; replacing a
        different one is refused — two stores behind one cache would
        split the write-behind stream unpredictably.
        """
        if self.store is store:
            return
        if self.store is not None:
            raise ValueError(
                "cache already has a program store attached; build a new "
                "cache to switch stores"
            )
        self.store = store

    def set_priority(self, key: str, priority: int) -> None:
        """Set one key's eviction priority (0 restores plain LRU).

        Priorities are *sticky*: they survive eviction, invalidation and
        :meth:`clear`, so a pin set before the program is computed
        (the control plane's preload-on-route path) applies when the
        entry eventually lands.  Callers own unpinning — the control
        plane drops a shard's pins when the shard drains.
        """
        if priority:
            self._priority_of[key] = int(priority)
        else:
            self._priority_of.pop(key, None)

    def priority_of(self, key: str) -> int:
        """The eviction priority of ``key`` (0 when never set)."""
        return self._priority_of.get(key, 0)

    def _eviction_candidate(self) -> str:
        """The key to evict: lowest priority first, LRU within a priority.

        The newest entry (the one just installed) is never a candidate —
        evicting the program the caller is about to use would turn every
        swap into a cold remap, the same rationale as the sole-oversized-
        entry rule.  With no priorities set this degenerates to "oldest
        key", the historical pure-LRU order, exactly.
        """
        candidates = list(self._entries)[:-1]
        best = candidates[0]
        best_priority = self._priority_of.get(best, 0)
        for key in candidates[1:]:
            if best_priority <= 0:
                break  # an unpinned LRU-oldest entry always wins
            priority = self._priority_of.get(key, 0)
            if priority < best_priority:
                best, best_priority = key, priority
        return best

    def _insert(
        self, key: str, programmed: ProgrammedWeights, die: int | None
    ) -> None:
        """Store one entry, then evict until capacity and budget hold.

        Eviction order is (priority, least-recently-used) — see
        :meth:`set_priority`; a cache with no priorities set evicts in
        the historical pure-LRU order.
        """
        self._entries[key] = programmed
        self._die_of[key] = die
        self._nbytes_of[key] = self.entry_nbytes(programmed)
        self.stats.bytes_cached += self._nbytes_of[key]
        while len(self._entries) > 1 and (
            (self.capacity is not None and len(self._entries) > self.capacity)
            or (
                self.memory_budget_bytes is not None
                and self.stats.bytes_cached > self.memory_budget_bytes
            )
        ):
            evicted = self._eviction_candidate()
            self._entries.pop(evicted)
            self._die_of.pop(evicted, None)
            nbytes = self._nbytes_of.pop(evicted, 0)
            self.stats.bytes_cached -= nbytes
            self.stats.bytes_evicted += nbytes
            self.stats.evictions += 1

    def invalidate_die(self, seed: int | None) -> int:
        """Drop every program mapped on the die with ``seed``.

        The online-recalibration path calls this when a node's watchdog
        trips: after a thermal re-trim or an upset recovery the die's old
        realized-weight records are stale, so the next ``activate`` of each
        model on that node must re-run the (deterministic) mapping chain.
        Returns the number of entries dropped.
        """
        stale = [key for key, die in self._die_of.items() if die == seed]
        for key in stale:
            self._entries.pop(key, None)
            self._die_of.pop(key, None)
            self.stats.bytes_cached -= self._nbytes_of.pop(key, 0)
        self.stats.invalidations += len(stale)
        if self.store is not None:
            # Both layers: the recalibrated die's on-disk artifacts are
            # as stale as its resident programs.
            self.store.invalidate_die(seed)
        return len(stale)

    def clear(self) -> None:
        """Drop every entry (stats are kept; ``bytes_cached`` zeroes)."""
        self._entries.clear()
        self._die_of.clear()
        self._nbytes_of.clear()
        self.stats.bytes_cached = 0
