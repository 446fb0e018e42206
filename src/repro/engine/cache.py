"""Weight-program cache: AWC mapping results keyed by kernel set.

Programming the OPC is the expensive half of activating a model: the AWC
realization, crosstalk solve and tuning-budget pricing cover every mapped
MR.  Steady-state video amortises it away, but a *serving* workload
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
not change the digest — it equals one sha256 over every field in order.

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
entries are bit-identical to the invalidated ones.  A chaos cache storm
(:mod:`repro.engine.chaos`, replayed by the health monitor) reuses the
same hook.  Nothing else removes an entry: the cache is unbounded, one
realized tensor per (kernel set, die) mapped in this process.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.core.config import OISAConfig
from repro.core.opc import KernelSet, OpticalProcessingCore, ProgrammedWeights

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
    #: Entries dropped by health-driven :meth:`WeightProgramCache.invalidate_die`
    #: calls (recalibration after a fault or thermal re-trim).
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0


class WeightProgramCache:
    """In-memory map from program key to OPC weight program.

    Unbounded: it keeps every program mapped through it until
    :meth:`invalidate_die` drops a die's entries.
    """

    def __init__(self) -> None:
        self.stats = CacheStats()
        #: Program and the die seed it was mapped on, per key (the seed
        #: serves health-driven invalidation).
        self._entries: dict[str, tuple[ProgrammedWeights, int | None]] = {}

    def __len__(self) -> int:
        return len(self._entries)

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
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.hits += 1
            opc.install(entry[0])
            return entry[0], True

        self.stats.misses += 1
        programmed = opc.program(kernels.weights, kernels.scale)
        self._entries[key] = (programmed, opc.seed)
        return programmed, False

    def invalidate_die(self, seed: int | None) -> int:
        """Drop every program mapped on the die with ``seed``.

        The online-recalibration path calls this when a node's watchdog
        trips: after a thermal re-trim or an upset recovery the die's old
        realized-weight records are stale, so the next ``activate`` of each
        model on that node must re-run the (deterministic) mapping chain.
        Returns the number of entries dropped.
        """
        stale = [key for key, (_, die) in self._entries.items() if die == seed]
        for key in stale:
            del self._entries[key]
        self.stats.invalidations += len(stale)
        return len(stale)
