"""Tests for repro.util.rng."""

import re

import numpy as np
import pytest

from repro.util.rng import DEFAULT_SEED, _label_to_int, derive_rng, spawn_seeds


def test_same_seed_same_stream():
    a = derive_rng(42, "x").normal(size=8)
    b = derive_rng(42, "x").normal(size=8)
    np.testing.assert_array_equal(a, b)


def test_different_labels_independent():
    a = derive_rng(42, "alpha").normal(size=8)
    b = derive_rng(42, "beta").normal(size=8)
    assert not np.allclose(a, b)


def test_different_seeds_differ():
    a = derive_rng(1, "x").normal(size=8)
    b = derive_rng(2, "x").normal(size=8)
    assert not np.allclose(a, b)


def test_none_seed_uses_default():
    a = derive_rng(None, "x").normal(size=4)
    b = derive_rng(DEFAULT_SEED, "x").normal(size=4)
    np.testing.assert_array_equal(a, b)


def test_empty_label_stable():
    a = derive_rng(7).normal(size=4)
    b = derive_rng(7).normal(size=4)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("seed", [None, 0, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("label", ["", "awc-branch-mismatch"])
def test_derive_rng_matches_the_two_step_seed_sequence(seed, label):
    # The historical formula: a labelled stream took the entropy of
    # SeedSequence([base, label]) and seeded a second SeedSequence with it.
    base = DEFAULT_SEED if seed is None else seed
    if label:
        base = np.random.SeedSequence([base, _label_to_int(label)]).entropy
    reference = np.random.default_rng(np.random.SeedSequence([base]))
    np.testing.assert_array_equal(
        derive_rng(seed, label).random(16), reference.random(16)
    )


def test_spawn_seeds_deterministic_and_distinct():
    seeds = spawn_seeds(0, 10)
    assert seeds == spawn_seeds(0, 10)
    assert len(set(seeds)) == 10


def test_spawn_seeds_count_validation():
    assert spawn_seeds(0, 0) == []
    with pytest.raises(ValueError):
        spawn_seeds(0, -1)


@pytest.mark.parametrize("seed", [-1, -3, 1.5, True, "7"])
def test_a_seed_must_be_a_non_negative_integer(seed):
    message = f"seed must be a non-negative integer, got {seed!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        derive_rng(seed, "x")
    with pytest.raises(ValueError, match=re.escape(message)):
        spawn_seeds(seed, 2)


def test_numpy_integer_seeds_match_python_ones():
    np.testing.assert_array_equal(
        derive_rng(np.uint64(2**63 + 5), "x").random(4),
        derive_rng(2**63 + 5, "x").random(4),
    )
    assert spawn_seeds(np.int64(3), 4) == spawn_seeds(3, 4)
