"""Content-addressed on-disk store of programmed weight records.

Programming is deterministic per (config, die seed, kernel set) — the
scalar-reference bit-identity contract of :mod:`repro.core.reference` —
which makes every :class:`~repro.core.opc.ProgrammedWeights` record a
*reusable artifact*: the expensive AWC realization / crosstalk solve /
tuning pricing only ever needs to run once per key, not once per
process.  The in-memory :class:`~repro.engine.cache.WeightProgramCache`
kills repeat programming *within* a run; this store kills it *across*
runs: a second ``repro serve`` or ``repro sweep`` against the same store
programs nothing.

Addressing: entries are keyed by the cache's own
:meth:`~repro.engine.cache.WeightProgramCache.key_for` digest — a sha256
over the quantized kernel set, the quantizer scale, the full
architecture config repr, the die seed / crosstalk flag, and the
calibration token — so *everything that shapes the mapping* is already
in the filename.  The filename also carries
:data:`STORE_SCHEMA_VERSION`, so a layout change simply misses old
entries instead of misreading them.

Integrity: each npz embeds a sha256 digest over the exact payload
bytes.  A load recomputes and compares it; a truncated file, a flipped
bit, or a wrong-schema npz **never crashes serving** — the corrupt
entry is counted (:attr:`StoreStats.corrupt`), logged, removed, and the
caller falls through to reprogramming, which writes a fresh entry back.

Because programming is deterministic, a loaded record is byte-equal to
a freshly programmed one — the golden bit-identity tests hold with or
without a store attached.

Concurrency: writes are atomic (temp file + ``os.replace``) and
content-addressed (an existing entry is never rewritten), so process
workers and concurrent runs sharing one store directory race benignly —
every writer writes the same bytes.  A store instance pickles as its
path + schema alone (stats are per-process), which is what lets a
:class:`~repro.engine.cache.WeightProgramCache` carrying one travel
into :mod:`repro.util.parallel` workers.
"""

from __future__ import annotations

import hashlib
import logging
import os
import re
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.opc import ProgrammedWeights
from repro.photonics.tuning import TuningBudget

_LOG = logging.getLogger(__name__)

#: On-disk layout version; bump on any change to the npz field set or
#: the digest recipe.  Part of every filename *and* of
#: :meth:`ProgramStore.schema_token`, the CI cache key.
STORE_SCHEMA_VERSION: int = 1

#: ``<sha256 key>.v<schema>.npz``
_ENTRY_RE = re.compile(r"^([0-9a-f]{64})\.v(\d+)\.npz$")


class StoreCorruption(Exception):
    """One entry failed its integrity check (internal control flow)."""


@dataclass
class StoreStats:
    """Per-process counters of one :class:`ProgramStore` instance."""

    #: Entries loaded and integrity-verified.
    hits: int = 0
    #: Lookups that found no entry on disk.
    misses: int = 0
    #: Entries written (an already-present key does not rewrite).
    writes: int = 0
    #: Entries that failed the sha256/parse check on load and were
    #: removed — each one fell back to reprogramming, never a crash.
    corrupt: int = 0
    #: Entries removed by :meth:`ProgramStore.invalidate` /
    #: :meth:`ProgramStore.invalidate_die`.
    invalidations: int = 0


class ProgramStore:
    """Content-addressed npz store of :class:`ProgrammedWeights` records.

    Parameters
    ----------
    root:
        Directory holding the entries; created on first use.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = os.fspath(root)
        self.stats = StoreStats()
        os.makedirs(self.root, exist_ok=True)

    # -- pickling: a store travels into process workers as path only ----
    def __getstate__(self) -> dict[str, Any]:
        return {"root": self.root}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.root = state["root"]
        self.stats = StoreStats()
        os.makedirs(self.root, exist_ok=True)

    @classmethod
    def schema_token(cls) -> str:
        """Short digest of the on-disk schema, for CI cache keys."""
        text = f"repro-program-store-v{STORE_SCHEMA_VERSION}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def _path(self, key: str) -> str:
        return os.path.join(
            self.root, f"{key}.v{STORE_SCHEMA_VERSION}.npz"
        )

    @staticmethod
    def _digest(
        ideal: np.ndarray,
        realized: np.ndarray,
        scale: float,
        tuning: TuningBudget,
        mapping_iterations: int,
        die: int | None,
    ) -> str:
        """sha256 over the exact payload bytes + shape/dtype/scalar reprs."""
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(ideal).tobytes())
        digest.update(np.ascontiguousarray(realized).tobytes())
        digest.update(
            repr(
                (
                    ideal.shape,
                    str(ideal.dtype),
                    realized.shape,
                    str(realized.dtype),
                    float(scale),
                    float(tuning.energy_j),
                    float(tuning.latency_s),
                    float(tuning.holding_power_w),
                    int(mapping_iterations),
                    # A Python int, so a seed read back from the uint64
                    # (or legacy int64) field hashes as it was written.
                    None if die is None else int(die),
                )
            ).encode()
        )
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def put(
        self,
        key: str,
        programmed: ProgrammedWeights,
        die: int | None = None,
    ) -> bool:
        """Persist one record under ``key``; returns whether it wrote.

        Content-addressed: a key already on disk is left untouched (the
        bytes would be identical by the determinism contract).  Write
        failures (disk full, read-only store) are logged and swallowed —
        the store is an accelerator, never a point of failure.
        """
        path = self._path(key)
        if os.path.exists(path):
            return False
        digest = self._digest(
            programmed.ideal,
            programmed.realized,
            programmed.scale,
            programmed.tuning,
            programmed.mapping_iterations,
            die,
        )
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                np.savez(
                    handle,
                    ideal=programmed.ideal,
                    realized=programmed.realized,
                    scale=np.float64(programmed.scale),
                    tuning=np.array(
                        [
                            programmed.tuning.energy_j,
                            programmed.tuning.latency_s,
                            programmed.tuning.holding_power_w,
                        ],
                        dtype=np.float64,
                    ),
                    mapping_iterations=np.int64(
                        programmed.mapping_iterations
                    ),
                    # Die seeds span the full 64-bit range
                    # (spawn_seeds), so they need an unsigned field.
                    die=np.array(
                        [] if die is None else [die], dtype=np.uint64
                    ),
                    digest=np.frombuffer(
                        bytes.fromhex(digest), dtype=np.uint8
                    ),
                )
            os.replace(tmp, path)
        except OSError as error:
            _LOG.warning("program store write failed for %s: %s", key, error)
            try:
                os.remove(tmp)
            except OSError:
                pass
            return False
        self.stats.writes += 1
        return True

    def _read(self, path: str) -> tuple[ProgrammedWeights, int | None]:
        """Parse + integrity-check one entry; raises :class:`StoreCorruption`."""
        try:
            with np.load(path, allow_pickle=False) as payload:
                ideal = np.array(payload["ideal"])
                realized = np.array(payload["realized"])
                scale = float(payload["scale"])
                tuning_values = payload["tuning"]
                mapping_iterations = int(payload["mapping_iterations"])
                die_values = payload["die"]
                stored_digest = bytes(payload["digest"]).hex()
        except Exception as error:  # zip/parse/key errors: all corruption
            raise StoreCorruption(f"unreadable entry ({error})") from error
        if tuning_values.shape != (3,) or die_values.size > 1:
            raise StoreCorruption("malformed tuning/die fields")
        die = int(die_values[0]) if die_values.size else None
        tuning = TuningBudget(
            energy_j=float(tuning_values[0]),
            latency_s=float(tuning_values[1]),
            holding_power_w=float(tuning_values[2]),
        )
        expected = self._digest(
            ideal, realized, scale, tuning, mapping_iterations, die
        )
        if stored_digest != expected:
            raise StoreCorruption("sha256 mismatch")
        programmed = ProgrammedWeights(
            ideal=ideal,
            realized=realized,
            scale=scale,
            tuning=tuning,
            mapping_iterations=mapping_iterations,
        )
        return programmed, die

    def load(self, key: str) -> ProgrammedWeights | None:
        """The record under ``key``, or ``None`` (absent or corrupt).

        A corrupt entry is counted, logged and removed so the caller's
        reprogramming pass can write a fresh one back — corruption
        degrades to a cold start, never an exception.
        """
        path = self._path(key)
        if not os.path.exists(path):
            self.stats.misses += 1
            return None
        try:
            programmed, _die = self._read(path)
        except StoreCorruption as error:
            self.stats.corrupt += 1
            _LOG.warning(
                "program store entry %s corrupt (%s); reprogramming",
                key,
                error,
            )
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return programmed

    # ------------------------------------------------------------------
    # Inventory / maintenance
    # ------------------------------------------------------------------
    def keys(self) -> list[str]:
        """Keys of every current-schema entry on disk, sorted."""
        found = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        for name in names:
            match = _ENTRY_RE.match(name)
            if match and int(match.group(2)) == STORE_SCHEMA_VERSION:
                found.append(match.group(1))
        return sorted(found)

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def total_bytes(self) -> int:
        """On-disk bytes across current-schema entries."""
        total = 0
        for key in self.keys():
            try:
                total += os.path.getsize(self._path(key))
            except OSError:  # pragma: no cover - racing delete
                pass
        return total

    def verify(self) -> dict[str, list[str]]:
        """Integrity-check every entry without mutating the store.

        Returns ``{"ok": [...], "corrupt": [...]}`` key lists.  Unlike
        :meth:`load`, corrupt entries are *kept* so an operator can
        inspect them (``repro cache purge`` removes everything).
        """
        report: dict[str, list[str]] = {"ok": [], "corrupt": []}
        for key in self.keys():
            try:
                self._read(self._path(key))
            except StoreCorruption:
                report["corrupt"].append(key)
            else:
                report["ok"].append(key)
        return report

    def invalidate(self, key: str) -> bool:
        """Remove one entry; returns whether it existed."""
        try:
            os.remove(self._path(key))
        except OSError:
            return False
        self.stats.invalidations += 1
        return True

    def invalidate_die(self, seed: int | None) -> int:
        """Remove every entry programmed on the die with ``seed``.

        The health layer's recalibration hook
        (:meth:`~repro.engine.cache.WeightProgramCache.invalidate_die`)
        forwards here so a tripped die's stale programs disappear from
        *both* layers.  Entries whose die field cannot be read are
        treated as corrupt and removed too.  Returns entries removed.
        """
        removed = 0
        for key in self.keys():
            path = self._path(key)
            try:
                _programmed, die = self._read(path)
            except StoreCorruption:
                self.stats.corrupt += 1
                try:
                    os.remove(path)
                except OSError:
                    pass
                continue
            if die == seed:
                if self.invalidate(key):
                    removed += 1
        return removed

    def purge(self) -> int:
        """Remove every current-schema entry; returns how many."""
        removed = 0
        for key in self.keys():
            if self.invalidate(key):
                removed += 1
        return removed


__all__ = [
    "ProgramStore",
    "STORE_SCHEMA_VERSION",
    "StoreCorruption",
    "StoreStats",
]
