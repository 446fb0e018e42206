"""Tests for repro.engine.store — the content-addressed program store.

Covers the ISSUE's hard cases: byte-exact round-trips across bit widths,
truncation / hash-mismatch degrading to reprogramming (counted, never a
crash), eviction leaving the on-disk copy alone, and ``invalidate_die``
clearing both layers.
"""

import os

import numpy as np
import pytest

from repro.core.opc import OpticalProcessingCore
from repro.engine import (
    STORE_SCHEMA_VERSION,
    FrameServer,
    ProgramStore,
    WeightProgramCache,
)
from repro.engine.workloads import ModelSpec
from repro.nn.quant import UniformWeightQuantizer


def _kernel_set(seed, bits=4, shape=(8, 1, 3, 3)):
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=shape) * 0.1
    quantizer = UniformWeightQuantizer(bits)
    return quantizer.quantize(weights), quantizer.scale(weights)


def _programmed(seed=0, bits=4, die=1):
    opc = OpticalProcessingCore(seed=die)
    quantized, scale = _kernel_set(seed, bits=bits)
    programmed = opc.program(quantized, scale)
    key = WeightProgramCache.key_for(opc, quantized, scale)
    return key, programmed


def _assert_byte_equal(left, right):
    assert left.ideal.dtype == right.ideal.dtype
    assert left.realized.dtype == right.realized.dtype
    assert np.array_equal(left.ideal, right.ideal)
    assert np.array_equal(left.realized, right.realized)
    assert left.scale == right.scale
    assert left.tuning == right.tuning
    assert left.mapping_iterations == right.mapping_iterations


# --------------------------------------------------------------------------
# Round trips
# --------------------------------------------------------------------------
@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_roundtrip_byte_equal_across_bit_widths(tmp_path, bits):
    store = ProgramStore(tmp_path)
    key, programmed = _programmed(seed=bits, bits=bits)
    assert store.put(key, programmed, die=1) is True
    loaded = store.load(key)
    assert loaded is not None
    _assert_byte_equal(loaded, programmed)
    assert store.stats.writes == 1 and store.stats.hits == 1


def test_roundtrip_byte_equal_across_zoo(tmp_path):
    """Every zoo family's first layer survives the npz round trip."""
    store = ProgramStore(tmp_path)
    for family in ("lenet", "mlp", "vgg16", "resnet18"):
        spec = ModelSpec(family, 4)
        model = spec.build(0)
        from repro.core.pipeline import HardwareFirstLayerPipeline

        first = HardwareFirstLayerPipeline._find_first_quant_layer(model)
        quantized = first.quantizer.quantize(first.weight.data)
        scale = first.quantizer.scale(first.weight.data)
        opc = OpticalProcessingCore(seed=3)
        programmed = opc.program(quantized, scale)
        key = WeightProgramCache.key_for(opc, quantized, scale)
        store.put(key, programmed, die=3)
        _assert_byte_equal(store.load(key), programmed)


def test_put_is_content_addressed_and_idempotent(tmp_path):
    store = ProgramStore(tmp_path)
    key, programmed = _programmed()
    assert store.put(key, programmed, die=1) is True
    assert store.put(key, programmed, die=1) is False  # never rewritten
    assert store.stats.writes == 1
    assert len(store) == 1 and key in store


def test_missing_key_counts_a_miss(tmp_path):
    store = ProgramStore(tmp_path)
    assert store.load("0" * 64) is None
    assert store.stats.misses == 1 and store.stats.corrupt == 0


def test_keys_ignore_foreign_and_old_schema_files(tmp_path):
    store = ProgramStore(tmp_path)
    key, programmed = _programmed()
    store.put(key, programmed, die=1)
    (tmp_path / "README.txt").write_text("not an entry")
    (tmp_path / f"{'a' * 64}.v{STORE_SCHEMA_VERSION + 1}.npz").write_bytes(
        b"future schema"
    )
    assert store.keys() == [key]
    assert len(store) == 1


def test_schema_token_is_stable_and_short():
    assert ProgramStore.schema_token() == ProgramStore.schema_token()
    assert len(ProgramStore.schema_token()) == 16


def test_store_pickles_as_path_only(tmp_path):
    import pickle

    store = ProgramStore(tmp_path)
    key, programmed = _programmed()
    store.put(key, programmed, die=1)
    clone = pickle.loads(pickle.dumps(store))
    assert clone.root == store.root
    assert clone.stats.writes == 0  # stats are per-process
    _assert_byte_equal(clone.load(key), programmed)


# --------------------------------------------------------------------------
# Corruption: degrade to reprogramming, never crash
# --------------------------------------------------------------------------
def _entry_path(store, key):
    return os.path.join(store.root, f"{key}.v{STORE_SCHEMA_VERSION}.npz")


def test_truncated_entry_reprograms_and_counts(tmp_path):
    store = ProgramStore(tmp_path)
    key, programmed = _programmed()
    store.put(key, programmed, die=1)
    path = _entry_path(store, key)
    data = open(path, "rb").read()
    with open(path, "wb") as handle:
        handle.write(data[: len(data) // 2])
    assert store.load(key) is None  # degraded, not raised
    assert store.stats.corrupt == 1
    assert not os.path.exists(path)  # removed for the rewrite
    # The caller's reprogramming pass writes a fresh entry back.
    assert store.put(key, programmed, die=1) is True
    _assert_byte_equal(store.load(key), programmed)


def test_flipped_payload_bit_fails_sha256(tmp_path):
    store = ProgramStore(tmp_path)
    key, programmed = _programmed()
    store.put(key, programmed, die=1)
    path = _entry_path(store, key)
    data = bytearray(open(path, "rb").read())
    # npz members are STORED (uncompressed), so flipping a byte in the
    # middle lands in array payload and must trip the digest check.
    data[len(data) // 2] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    assert store.load(key) is None
    assert store.stats.corrupt == 1


def test_verify_reports_but_keeps_corrupt_entries(tmp_path):
    store = ProgramStore(tmp_path)
    good_key, programmed = _programmed(seed=0)
    bad_key, other = _programmed(seed=1)
    store.put(good_key, programmed, die=1)
    store.put(bad_key, other, die=1)
    bad_path = _entry_path(store, bad_key)
    with open(bad_path, "wb") as handle:
        handle.write(b"garbage")
    report = store.verify()
    assert report["ok"] == [good_key]
    assert report["corrupt"] == [bad_key]
    assert os.path.exists(bad_path)  # kept for inspection


def test_cache_falls_back_to_programming_on_corruption(tmp_path):
    """A corrupt store entry costs one mapping chain, nothing else."""
    store = ProgramStore(tmp_path)
    opc = OpticalProcessingCore(seed=1)
    quantized, scale = _kernel_set(0)
    cold = WeightProgramCache(store=store)
    programmed, hit = cold.get_or_program(opc, quantized, scale)
    assert hit is False
    key = cold.key_for(opc, quantized, scale)
    path = _entry_path(store, key)
    with open(path, "wb") as handle:
        handle.write(b"garbage")

    warm_store = ProgramStore(tmp_path)
    warm = WeightProgramCache(store=warm_store)
    fresh_opc = OpticalProcessingCore(seed=1)
    reprogrammed, hit = warm.get_or_program(fresh_opc, quantized, scale)
    assert hit is False  # corruption degraded to a cold program
    assert warm_store.stats.corrupt == 1
    assert warm.stats.store_hits == 0
    _assert_byte_equal(reprogrammed, programmed)
    # ... and the fresh entry was written back behind the miss.
    _assert_byte_equal(warm_store.load(key), programmed)


# --------------------------------------------------------------------------
# Cache integration: read-through, write-behind, eviction, invalidation
# --------------------------------------------------------------------------
def test_second_cache_restores_instead_of_programming(tmp_path):
    store = ProgramStore(tmp_path)
    opc = OpticalProcessingCore(seed=1)
    quantized, scale = _kernel_set(0)
    cold = WeightProgramCache(store=store)
    programmed, _ = cold.get_or_program(opc, quantized, scale)

    warm = WeightProgramCache(store=ProgramStore(tmp_path))
    fresh_opc = OpticalProcessingCore(seed=1)
    restored, hit = warm.get_or_program(fresh_opc, quantized, scale)
    assert hit is True  # no mapping chain ran
    assert warm.stats.misses == 0
    assert warm.stats.store_hits == 1
    _assert_byte_equal(restored, programmed)


def test_eviction_never_deletes_the_disk_copy(tmp_path):
    store = ProgramStore(tmp_path)
    cache = WeightProgramCache(capacity=1, store=store)
    opc = OpticalProcessingCore(seed=1)
    first_q, first_s = _kernel_set(0)
    second_q, second_s = _kernel_set(1)
    first_key = cache.key_for(opc, first_q, first_s)
    programmed, _ = cache.get_or_program(opc, first_q, first_s)
    cache.get_or_program(opc, second_q, second_s)  # evicts the first
    assert cache.stats.evictions == 1
    assert not cache.has_program(opc, first_q, first_s)
    assert first_key in store  # eviction is strictly in-memory
    # The next activation restores the evicted entry from disk.
    restored, hit = cache.get_or_program(opc, first_q, first_s)
    assert hit is True and cache.stats.store_hits == 1
    _assert_byte_equal(restored, programmed)


def test_invalidate_die_clears_both_layers(tmp_path):
    store = ProgramStore(tmp_path)
    cache = WeightProgramCache(store=store)
    tripped = OpticalProcessingCore(seed=1)
    healthy = OpticalProcessingCore(seed=2)
    quantized, scale = _kernel_set(0)
    cache.get_or_program(tripped, quantized, scale)
    cache.get_or_program(healthy, quantized, scale)
    assert len(cache) == 2 and len(store) == 2

    assert cache.invalidate_die(1) == 1
    assert len(cache) == 1
    assert len(store) == 1  # the tripped die's npz is gone too
    assert store.keys() == [cache.key_for(healthy, quantized, scale)]
    assert store.stats.invalidations == 1


def test_attach_store_is_idempotent_but_not_replaceable(tmp_path):
    store = ProgramStore(tmp_path / "one")
    cache = WeightProgramCache(store=store)
    cache.attach_store(store)  # same store: no-op
    with pytest.raises(ValueError, match="already has a program store"):
        cache.attach_store(ProgramStore(tmp_path / "two"))


def test_restore_from_store_is_stats_neutral(tmp_path):
    store = ProgramStore(tmp_path)
    opc = OpticalProcessingCore(seed=1)
    quantized, scale = _kernel_set(0)
    WeightProgramCache(store=store).get_or_program(opc, quantized, scale)

    warm = WeightProgramCache(store=ProgramStore(tmp_path))
    fresh_opc = OpticalProcessingCore(seed=1)
    assert warm.restore_from_store(fresh_opc, quantized, scale) is True
    assert warm.stats.hits == 0 and warm.stats.misses == 0
    assert warm.stats.store_hits == 1
    assert warm.restore_from_store(fresh_opc, quantized, scale) is True
    assert warm.stats.store_hits == 1  # resident: no second disk read
    missing_q, missing_s = _kernel_set(9)
    assert warm.restore_from_store(fresh_opc, missing_q, missing_s) is False


# --------------------------------------------------------------------------
# Server-level warm runs
# --------------------------------------------------------------------------
def _store_server(tmp_path, program_store):
    from repro.nn.models import build_lenet

    server = FrameServer(
        num_nodes=2, micro_batch=8, seed=0, program_store=program_store
    )
    server.register_model("model-a", build_lenet(seed=0))
    server.register_model("model-b", build_lenet(seed=1))
    return server


def test_warm_server_programs_nothing(tmp_path):
    cold = _store_server(tmp_path, ProgramStore(tmp_path / "store"))
    cold_report = cold.warmup(frame_shape=(1, 28, 28))
    assert cold_report["cache_misses"] > 0

    warm = _store_server(tmp_path, str(tmp_path / "store"))  # path form
    warm_report = warm.warmup(frame_shape=(1, 28, 28))
    assert warm_report["cache_misses"] == 0
    assert warm.cache.stats.misses == 0
    assert warm.cache.stats.store_hits == cold_report["cache_misses"]


def test_capacity_prewarm_stores_full_range_die_seeds(tmp_path):
    """Die seeds span 64 bits: a 4-node pre-warm stores and restores them."""
    from repro.analysis.capacity import CapacitySettings, _prewarm_programs
    from repro.cli import main
    from repro.util.rng import spawn_seeds

    assert max(spawn_seeds(0, 4)) >= 2**63  # the seeds an int64 field rejects
    settings = CapacitySettings(node_counts=(1, 2, 4))
    store = str(tmp_path / "store")
    cold = _prewarm_programs(settings, program_store=store)
    assert cold.stats.misses > 0
    warm = _prewarm_programs(settings, program_store=store)
    assert warm.stats.misses == 0
    assert warm.stats.store_hits == cold.stats.misses
    assert main(["cache", "verify", "--program-store", store]) == 0


def test_legacy_int64_die_entries_still_verify(tmp_path):
    store = ProgramStore(tmp_path)
    key, programmed = _programmed(die=5)
    store.put(key, programmed, die=5)
    path = _entry_path(store, key)
    with np.load(path) as payload:
        fields = {name: payload[name] for name in payload.files}
    assert fields["die"].dtype == np.uint64
    fields["die"] = fields["die"].astype(np.int64)  # the pre-fix layout
    with open(path, "wb") as handle:
        np.savez(handle, **fields)
    assert store.verify() == {"ok": [key], "corrupt": []}
    _assert_byte_equal(store.load(key), programmed)
