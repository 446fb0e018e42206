"""Tests for WeightProgramCache byte-budget mode and residency probes."""

import numpy as np
import pytest

from repro.core.opc import KernelSet, OpticalProcessingCore
from repro.engine import WeightProgramCache
from repro.nn.quant import UniformWeightQuantizer


def _kernel_set(seed):
    """A distinct quantized kernel set per seed (same shape/size)."""
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(8, 1, 3, 3)) * 0.1
    quantizer = UniformWeightQuantizer(4)
    return KernelSet.build(quantizer.quantize(weights), quantizer.scale(weights))


@pytest.fixture
def opc():
    return OpticalProcessingCore(seed=1)


def _program(cache, opc, seed):
    return cache.get_or_program(opc, _kernel_set(seed))


def _entry_bytes(opc):
    """Resident bytes of one program for the fixture kernel shape."""
    cache = WeightProgramCache()
    programmed, _ = _program(cache, opc, seed=0)
    return WeightProgramCache.entry_nbytes(programmed)


# --------------------------------------------------------------------------
# Accounting
# --------------------------------------------------------------------------
def test_entry_nbytes_counts_both_tensors(opc):
    cache = WeightProgramCache()
    programmed, _ = _program(cache, opc, seed=0)
    expected = programmed.ideal.nbytes + programmed.realized.nbytes
    assert WeightProgramCache.entry_nbytes(programmed) == expected
    assert cache.stats.bytes_cached == expected
    assert cache.stats.bytes_evicted == 0


def test_bytes_cached_tracks_inserts_and_clear(opc):
    cache = WeightProgramCache()
    per_entry = _entry_bytes(opc)
    for seed in range(3):
        _program(cache, opc, seed)
    assert cache.stats.bytes_cached == 3 * per_entry
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.bytes_cached == 0
    # Cumulative counters survive clear() (they describe history).
    assert cache.stats.misses == 3


def test_invalidate_die_releases_bytes(opc):
    cache = WeightProgramCache()
    per_entry = _entry_bytes(opc)
    other_die = OpticalProcessingCore(seed=2)
    _program(cache, opc, 0)
    _program(cache, other_die, 0)
    assert cache.stats.bytes_cached == 2 * per_entry
    dropped = cache.invalidate_die(opc.seed)
    assert dropped == 1
    assert cache.stats.bytes_cached == per_entry
    assert cache.stats.bytes_evicted == 0  # invalidation is not eviction


# --------------------------------------------------------------------------
# Budget-driven eviction
# --------------------------------------------------------------------------
def test_budget_evicts_lru_first(opc):
    per_entry = _entry_bytes(opc)
    cache = WeightProgramCache(memory_budget_bytes=2 * per_entry)
    _program(cache, opc, 0)
    _program(cache, opc, 1)
    assert cache.stats.evictions == 0

    # Touch set 0 so set 1 becomes the LRU entry, then overflow.
    _, hit = _program(cache, opc, 0)
    assert hit
    _program(cache, opc, 2)

    assert len(cache) == 2
    assert cache.stats.evictions == 1
    assert cache.stats.bytes_evicted == per_entry
    assert cache.stats.bytes_cached == 2 * per_entry
    # Set 1 was evicted (LRU); sets 0 and 2 are resident.
    assert cache.has_program(opc, _kernel_set(0))
    assert not cache.has_program(opc, _kernel_set(1))
    assert cache.has_program(opc, _kernel_set(2))


def test_budget_and_capacity_compose(opc):
    """The tighter of the two bounds wins."""
    per_entry = _entry_bytes(opc)
    cache = WeightProgramCache(
        capacity=1, memory_budget_bytes=10 * per_entry
    )
    _program(cache, opc, 0)
    _program(cache, opc, 1)
    assert len(cache) == 1
    assert cache.stats.evictions == 1
    assert cache.stats.bytes_cached == per_entry


def test_sole_oversized_entry_is_kept(opc):
    """A single entry above the whole budget stays resident."""
    per_entry = _entry_bytes(opc)
    cache = WeightProgramCache(memory_budget_bytes=per_entry // 2)
    programmed, _ = _program(cache, opc, 0)
    assert len(cache) == 1
    assert cache.stats.evictions == 0
    assert cache.stats.bytes_cached == per_entry

    # ... and is first in line once anything newer lands.
    _program(cache, opc, 1)
    assert len(cache) == 1
    assert cache.stats.evictions == 1
    assert not cache.has_program(opc, _kernel_set(0))


def test_invalid_budget_rejected():
    with pytest.raises(ValueError, match="memory_budget_bytes"):
        WeightProgramCache(memory_budget_bytes=0)
    with pytest.raises(ValueError, match="memory_budget_bytes"):
        WeightProgramCache(memory_budget_bytes=-64)


# --------------------------------------------------------------------------
# has_program (the residency probe)
# --------------------------------------------------------------------------
def test_has_program_leaves_stats_and_lru_alone(opc):
    per_entry = _entry_bytes(opc)
    cache = WeightProgramCache(memory_budget_bytes=2 * per_entry)
    _program(cache, opc, 0)
    _program(cache, opc, 1)
    stats_before = (cache.stats.hits, cache.stats.misses)

    set0 = _kernel_set(0)
    assert cache.has_program(opc, set0)  # must NOT refresh set 0's LRU slot
    assert (cache.stats.hits, cache.stats.misses) == stats_before

    _program(cache, opc, 2)  # overflow: set 0 is still the LRU entry
    assert not cache.has_program(opc, set0)
