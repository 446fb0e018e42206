"""Deterministic random-number management.

Every stochastic component in the repository (device mismatch, optical noise,
dataset synthesis, weight init) draws from a :class:`numpy.random.Generator`
derived from an explicit integer seed.  ``derive_rng`` provides a stable way
to fork independent streams from a (seed, label) pair so that, e.g., the AWC
mismatch pattern does not shift when the dataset generator consumes more
randomness.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.util.validation import check_seed

#: Seed used when a caller passes ``seed=None``; keeps runs reproducible by
#: default while still letting callers opt into explicit seeds.
DEFAULT_SEED = 0xD47E_2024  # "DATE 2024"


def _label_to_int(label: str) -> int:
    """Hash a text label into a stable 64-bit integer."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _base_seed(seed: int | None) -> int:
    """The integer behind ``seed``: :data:`DEFAULT_SEED` for ``None``,
    else the seed itself, which must be a non-negative integer (the one
    check every seed in the package passes through)."""
    if seed is None:
        return DEFAULT_SEED
    return int(check_seed(seed))


def derive_rng(seed: int | None, label: str = "") -> np.random.Generator:
    """Return a Generator seeded from ``(seed, label)``.

    Parameters
    ----------
    seed:
        Base integer seed; ``None`` selects :data:`DEFAULT_SEED`.
    label:
        Free-form stream label (e.g. ``"awc-mismatch"``).  Different labels
        with the same seed give independent, reproducible streams.
    """
    base = _base_seed(seed)
    entropy = [base, _label_to_int(label)] if label else [base]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def spawn_seeds(seed: int | None, count: int) -> list[int]:
    """Produce ``count`` independent child seeds from a base seed."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count!r}")
    children = np.random.SeedSequence(_base_seed(seed)).spawn(count)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in children]
