"""Tests for repro.engine.store — the content-addressed program store.

Covers byte-exact round-trips across bit widths, the entry field set,
truncation / hash-mismatch / an entry copied onto another key degrading
to reprogramming (counted, never a crash), ``invalidate_die`` clearing
both layers, ``purge`` across schema versions, and warmed /
store-restored serves against the pinned golden stream
(``tests/goldens/serve_default.json``).
"""

import json
import os
import shutil

import numpy as np
import pytest

from repro.core.opc import KernelSet, OpticalProcessingCore
from repro.core.pipeline import HardwareFirstLayerPipeline, kernel_set
from repro.engine import (
    STORE_SCHEMA_VERSION,
    FrameServer,
    ProgramStore,
    WeightProgramCache,
)
from repro.engine.workloads import ModelSpec
from repro.nn.quant import UniformWeightQuantizer

# The scheduler-golden helpers (_build_server/_mixed_requests/_golden_view)
# define the pinned default stream; reuse them so the oracles below cannot
# drift from the golden's projection.
import test_engine_scheduler


def _kernel_set(seed, bits=4, shape=(8, 1, 3, 3)):
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=shape) * 0.1
    quantizer = UniformWeightQuantizer(bits)
    return KernelSet.build(quantizer.quantize(weights), quantizer.scale(weights))


def _programmed(seed=0, bits=4, die=1):
    opc = OpticalProcessingCore(seed=die)
    kernels = _kernel_set(seed, bits=bits)
    programmed = opc.program(kernels.weights, kernels.scale)
    key = WeightProgramCache.key_for(opc, kernels)
    return key, kernels, programmed


def _stored_cache(store):
    cache = WeightProgramCache()
    cache.attach_store(store)
    return cache


def _entry_path(store, key):
    return os.path.join(store.root, f"{key}.v{STORE_SCHEMA_VERSION}.npz")


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
    key, kernels, programmed = _programmed(seed=bits, bits=bits)
    assert store.put(key, programmed, die=1) is True
    loaded = store.load(key, kernels)
    assert loaded is not None
    _assert_byte_equal(loaded, programmed)
    assert store.stats.writes == 1 and store.stats.hits == 1


def test_entry_holds_only_the_mapping_outputs(tmp_path):
    """No ``ideal``: the kernel set passed to ``load`` supplies it."""
    store = ProgramStore(tmp_path)
    key, kernels, programmed = _programmed()
    store.put(key, programmed, die=1)
    with np.load(_entry_path(store, key)) as payload:
        assert set(payload.files) == {
            "realized",
            "scale",
            "tuning",
            "mapping_iterations",
            "die",
            "digest",
        }
    assert store.load(key, kernels).ideal is kernels.weights


def test_roundtrip_byte_equal_across_zoo(tmp_path):
    """Every zoo family's first layer survives the npz round trip."""
    store = ProgramStore(tmp_path)
    for family in ("lenet", "mlp", "vgg16", "resnet18"):
        spec = ModelSpec(family, 4)
        model = spec.build(0)
        kernels = kernel_set(
            HardwareFirstLayerPipeline._find_first_quant_layer(model)
        )
        opc = OpticalProcessingCore(seed=3)
        programmed = opc.program(kernels.weights, kernels.scale)
        key = WeightProgramCache.key_for(opc, kernels)
        store.put(key, programmed, die=3)
        _assert_byte_equal(store.load(key, kernels), programmed)


def test_put_is_content_addressed_and_idempotent(tmp_path):
    store = ProgramStore(tmp_path)
    key, _, programmed = _programmed()
    assert store.put(key, programmed, die=1) is True
    assert store.put(key, programmed, die=1) is False  # never rewritten
    assert store.stats.writes == 1
    assert len(store) == 1 and key in store


def test_missing_key_counts_a_miss(tmp_path):
    store = ProgramStore(tmp_path)
    assert store.load("0" * 64, _kernel_set(0)) is None
    assert store.stats.misses == 1 and store.stats.corrupt == 0


def test_keys_ignore_foreign_and_old_schema_files(tmp_path):
    store = ProgramStore(tmp_path)
    key, _, programmed = _programmed()
    store.put(key, programmed, die=1)
    (tmp_path / "README.txt").write_text("not an entry")
    (tmp_path / f"{'a' * 64}.v{STORE_SCHEMA_VERSION + 1}.npz").write_bytes(
        b"future schema"
    )
    (tmp_path / f"{'b' * 64}.v{STORE_SCHEMA_VERSION - 1}.npz").write_bytes(
        b"old schema"
    )
    assert store.keys() == [key]
    assert len(store) == 1


def test_purge_removes_entries_of_every_schema(tmp_path):
    """A schema bump strands old entries; ``purge`` still reaches them,
    while ``keys``/``verify`` count the current schema only."""
    store = ProgramStore(tmp_path)
    key, _, programmed = _programmed()
    store.put(key, programmed, die=1)
    (tmp_path / f"{'b' * 64}.v{STORE_SCHEMA_VERSION - 1}.npz").write_bytes(
        b"old schema"
    )
    (tmp_path / "README.txt").write_text("not an entry")
    assert store.verify() == {"ok": [key], "corrupt": []}
    assert store.purge() == 2
    assert os.listdir(tmp_path) == ["README.txt"]
    assert store.stats.invalidations == 2


def test_schema_token_is_stable_and_short():
    assert ProgramStore.schema_token() == ProgramStore.schema_token()
    assert len(ProgramStore.schema_token()) == 16


# --------------------------------------------------------------------------
# Corruption: degrade to reprogramming, never crash
# --------------------------------------------------------------------------
def test_truncated_entry_reprograms_and_counts(tmp_path):
    store = ProgramStore(tmp_path)
    key, kernels, programmed = _programmed()
    store.put(key, programmed, die=1)
    path = _entry_path(store, key)
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data[: len(data) // 2])
    assert store.load(key, kernels) is None  # degraded, not raised
    assert store.stats.corrupt == 1
    assert not os.path.exists(path)  # removed for the rewrite
    # The caller's reprogramming pass writes a fresh entry back.
    assert store.put(key, programmed, die=1) is True
    _assert_byte_equal(store.load(key, kernels), programmed)


def test_flipped_payload_bit_fails_sha256(tmp_path):
    store = ProgramStore(tmp_path)
    key, kernels, programmed = _programmed()
    store.put(key, programmed, die=1)
    path = _entry_path(store, key)
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    # npz members are STORED (uncompressed), so the realized tensor's
    # bytes sit verbatim in the file; flip one of them.
    data[data.index(programmed.realized.tobytes()) + 8] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    assert store.load(key, kernels) is None
    assert store.stats.corrupt == 1


def test_verify_reports_but_keeps_corrupt_entries(tmp_path):
    store = ProgramStore(tmp_path)
    good_key, _, programmed = _programmed(seed=0)
    bad_key, _, other = _programmed(seed=1)
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
    kernels = _kernel_set(0)
    cold = _stored_cache(store)
    programmed, hit = cold.get_or_program(opc, kernels)
    assert hit is False
    key = cold.key_for(opc, kernels)
    path = _entry_path(store, key)
    with open(path, "wb") as handle:
        handle.write(b"garbage")

    warm_store = ProgramStore(tmp_path)
    warm = _stored_cache(warm_store)
    fresh_opc = OpticalProcessingCore(seed=1)
    reprogrammed, hit = warm.get_or_program(fresh_opc, kernels)
    assert hit is False  # corruption degraded to a cold program
    assert warm_store.stats.corrupt == 1
    assert warm.stats.store_hits == 0
    _assert_byte_equal(reprogrammed, programmed)
    # ... and the fresh entry was written back behind the miss.
    _assert_byte_equal(warm_store.load(key, kernels), programmed)


def test_entry_copied_onto_another_key_is_corrupt(tmp_path):
    """The digest binds an entry to its key: another key's entry under
    this key's filename fails verification and is never installed."""
    store = ProgramStore(tmp_path)
    opc = OpticalProcessingCore(seed=1)
    first, second = _kernel_set(0), _kernel_set(1, shape=(16, 1, 3, 3))
    _stored_cache(store).get_or_program(opc, first)
    first_key = WeightProgramCache.key_for(opc, first)
    second_key = WeightProgramCache.key_for(opc, second)
    shutil.copyfile(
        _entry_path(store, first_key), _entry_path(store, second_key)
    )
    assert store.verify() == {"ok": [first_key], "corrupt": [second_key]}

    warm_store = ProgramStore(tmp_path)
    warm = _stored_cache(warm_store)
    programmed, hit = warm.get_or_program(
        OpticalProcessingCore(seed=1), second
    )
    assert hit is False
    assert warm.stats.misses == 1 and warm.stats.store_hits == 0
    assert warm_store.stats.corrupt == 1
    cold = OpticalProcessingCore(seed=1).program(second.weights, second.scale)
    _assert_byte_equal(programmed, cold)


# --------------------------------------------------------------------------
# Cache integration: read-through, write-behind, invalidation
# --------------------------------------------------------------------------
def test_second_cache_restores_instead_of_programming(tmp_path):
    store = ProgramStore(tmp_path)
    opc = OpticalProcessingCore(seed=1)
    kernels = _kernel_set(0)
    cold = _stored_cache(store)
    programmed, _ = cold.get_or_program(opc, kernels)

    warm = _stored_cache(ProgramStore(tmp_path))
    fresh_opc = OpticalProcessingCore(seed=1)
    restored, hit = warm.get_or_program(fresh_opc, kernels)
    assert hit is True  # no mapping chain ran
    assert warm.stats.misses == 0
    assert warm.stats.store_hits == 1
    _assert_byte_equal(restored, programmed)


def test_invalidate_die_clears_both_layers(tmp_path):
    store = ProgramStore(tmp_path)
    cache = _stored_cache(store)
    tripped = OpticalProcessingCore(seed=1)
    healthy = OpticalProcessingCore(seed=2)
    kernels = _kernel_set(0)
    cache.get_or_program(tripped, kernels)
    cache.get_or_program(healthy, kernels)
    assert len(cache) == 2 and len(store) == 2

    assert cache.invalidate_die(1) == 1
    assert len(cache) == 1
    assert len(store) == 1  # the tripped die's npz is gone too
    assert store.keys() == [cache.key_for(healthy, kernels)]
    assert store.stats.invalidations == 1


def test_attach_store_is_idempotent_but_not_replaceable(tmp_path):
    store = ProgramStore(tmp_path / "one")
    cache = _stored_cache(store)
    cache.attach_store(store)  # same store: no-op
    with pytest.raises(ValueError, match="already has a program store"):
        cache.attach_store(ProgramStore(tmp_path / "two"))


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
    from repro.engine.workloads import build_scenario
    from repro.util.rng import spawn_seeds

    assert max(spawn_seeds(0, 4)) >= 2**63  # the seeds an int64 field rejects
    settings = CapacitySettings(node_counts=(1, 2, 4))
    models = build_scenario(settings.scenario, seed=settings.seed).models
    store = str(tmp_path / "store")
    cold = _prewarm_programs(settings, models, program_store=store)
    assert cold.stats.misses > 0
    warm = _prewarm_programs(settings, models, program_store=store)
    assert warm.stats.misses == 0
    assert warm.stats.store_hits == cold.stats.misses
    assert main(["cache", "verify", "--program-store", store]) == 0


def test_legacy_int64_die_entries_still_verify(tmp_path):
    store = ProgramStore(tmp_path)
    key, kernels, programmed = _programmed(die=5)
    store.put(key, programmed, die=5)
    path = _entry_path(store, key)
    with np.load(path) as payload:
        fields = {name: payload[name] for name in payload.files}
    assert fields["die"].dtype == np.uint64
    fields["die"] = fields["die"].astype(np.int64)  # the pre-fix layout
    with open(path, "wb") as handle:
        np.savez(handle, **fields)
    assert store.verify() == {"ok": [key], "corrupt": []}
    _assert_byte_equal(store.load(key, kernels), programmed)


# --------------------------------------------------------------------------
# Warmed and store-restored serves vs the pinned golden stream
# --------------------------------------------------------------------------
#: Fields that legitimately change under a warmed server: the serve-time
#: cache counters (warmup turns cold programs into hits), and the stream
#: energy total (a hit pays install/re-trim energy where the unwarmed
#: golden pays the cold mapping chain).  Everything else — placements,
#: event times, outputs, payloads — must match the golden exactly.
WARMUP_SENSITIVE_FIELDS = ("cache_hits", "cache_misses", "total_energy_j")


def _warmed_serve(store=None):
    """The golden mixed stream served after a warmup (optionally stored)."""
    server = test_engine_scheduler._build_server(num_nodes=2)
    if store is not None:
        server.cache.attach_store(ProgramStore(store))
    stats = server.warmup()
    report = server.serve(
        test_engine_scheduler._mixed_requests(), offered_fps=1800.0
    )
    return test_engine_scheduler._golden_view(report), stats, server


def _store_warmed_serve(store):
    """The golden mixed stream served after a store-backed warmup."""
    serialized, _, server = _warmed_serve(store)
    return serialized, server


@pytest.mark.parametrize("backing", ["in-memory", "program-store"])
def test_warmup_serves_golden_stream(backing, tmp_path):
    """A warmed 2-node server — programs held in memory only, or also
    written through to a program store — matches the unwarmed golden
    except the serve-time cache counters and energy total (warmup's job)."""
    store = tmp_path / "store" if backing == "program-store" else None
    warmed, stats, server = _warmed_serve(store)
    assert stats["models"] == 2 and stats["nodes"] == 2
    if store is not None:
        # Every program the warmup built cold is now on disk.
        assert len(ProgramStore(store)) == server.cache.stats.misses > 0
    with open(test_engine_scheduler.GOLDEN_PATH) as handle:
        golden = json.load(handle)["mixed_two_nodes_1800fps"]
    trimmed = {
        k: v for k, v in warmed.items() if k not in WARMUP_SENSITIVE_FIELDS
    }
    golden_trimmed = {
        k: v for k, v in golden.items() if k not in WARMUP_SENSITIVE_FIELDS
    }
    assert trimmed == golden_trimmed
    # The warmed server's serve does no more cold programs than the golden.
    assert warmed["cache_misses"] <= golden["cache_misses"]


def test_store_restored_serve_matches_golden_stream(tmp_path):
    """Cold-run, warm-run and store-less servers serve identical bytes."""
    serial, _, _ = _warmed_serve(None)
    cold, cold_server = _store_warmed_serve(tmp_path / "store")
    warm, warm_server = _store_warmed_serve(tmp_path / "store")
    assert cold == serial
    assert warm == serial  # restored programs serve the exact golden
    assert cold_server.cache.stats.misses > 0
    assert warm_server.cache.stats.misses == 0  # second run programs nothing
    assert (
        warm_server.cache.stats.store_hits == cold_server.cache.stats.misses
    )
