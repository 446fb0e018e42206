"""Shared kernel sets, program keys and timing tables.

A quant layer's kernel set (read-only quantized tensor, scale and the
sha256 prefix of its program key) is built once and reused by every
pipeline build and kernel swap, and each model's timing tables are
priced once per (config, bits, geometry, die tuning, radio).  These
tests pin the program keys and check that neither memo serves a stale
or foreign value.
"""

from __future__ import annotations

import copy
import dataclasses
import warnings

import numpy as np
import pytest

from repro.core.calibration import CalibratedAwcMapper
from repro.core.config import OISAConfig
from repro.core.opc import KernelSet, OpticalProcessingCore
from repro.core.pipeline import HardwareFirstLayerPipeline, kernel_set
from repro.engine import FrameRequest, FrameServer, WeightProgramCache
from repro.engine.server import _frame_tables
from repro.engine.workloads import ModelSpec, build_scenario
from repro.nn.quant import UniformWeightQuantizer
from repro.sim.fleet import RadioModel
from repro.util.rng import spawn_seeds


def _stem(model):
    return HardwareFirstLayerPipeline._find_first_quant_layer(model)


def _zoo():
    return build_scenario("zoo", frames=8, seed=0).models


# --------------------------------------------------------------------------
# Key pin
# --------------------------------------------------------------------------
#: ``key_for`` digests of the zoo's stems (models at seed 0) per die:
#: the two dies of a seed-0 server, the first one calibrated, and the
#: first one without crosstalk.
PINNED_KEYS = {
    "lenet-4b": (
        "896a4caad525755cf04cadf7a9541da8d43c80a07682125fcb6ad9b6cdf78a7f",
        "97daa1fd8d75cebd03bcf3cef69db6045eaff7c2acddee8e8fc628ef7230bb3c",
        "19b2959c77cd2063684b904752c34794a41de63078f02d624cad7f2499456984",
        "ba7ee96e5efac3d31671594ddbae2e92d1c4c6a6e6312ba369ac35c4dc3cb8be",
    ),
    "lenet-2b": (
        "3b2dc76235c6febb47511b4d4860e1d394b40e2ffafc39254944ce5d8f836595",
        "d3a5fda7ed3f8f4a280aafa3d7501180256144a92f61a5e868b4fab627137078",
        "164322c2c37fd5c7268173ac75d6a5b6dfededa893c7107712e46e0330fd7a44",
        "6ee6cc808db27db94c7f5c88d77a40e8c5a6bdce512f74b6d9fa0e5bd64235e8",
    ),
    "mlp-4b": (
        "62a7011cb448257538c901b3d16b6af0deb807e07c77b5c1b7999e51be2b5fe9",
        "a77bbeb3efbf86e36017852729c4791902b6eba15a9748c05b76de779c6f1f51",
        "44ed7e8f42ba1f523fc45dda563647c695d5ce034596aea7fb0d9250def2333a",
        "dc7f84041ca15d52687bc897054b1cbf693549f3345a9274f46659aabbb2687c",
    ),
    "mlp-2b": (
        "08e8ec7aa0869fb9e64b3dcd9cd3d7af1c7f0b91a1f54c3f06d8b595bad3281a",
        "8c406cd784e424c79308a448054c434581bede5cc5bf0607fb2f47fe9b9e1535",
        "984c1c4969fec48e26bdf8be40190625398ee54673c969333283d0bb1bfe4e5b",
        "93a0599ccc4757e1e0e7f0a94ea41da918a97271a761d786fbd03647cce316cc",
    ),
    "vgg16-4b": (
        "c89a29605030e7dd32a174e9f3e94a32e74c0025ec8544a285e073ddf82f809b",
        "6535a5fbe383d664ddd44893fb1b344412fac4a9a62503075aead14cf10ebac2",
        "74346729192209bbe83ace40db00d37858065b08364ec3bfe3da9ffcae89598d",
        "59da13dfaa29ea527bb3944fd97c7e9b5834f3ed60f212d22124dfb4b5ab9f49",
    ),
    "vgg16-1b": (
        "051850d347eda82313b8e85de2ef65325c70bfd544e0c0d41371cafb489c6cb4",
        "178999ab469996f81f99ad2106c90aba1fc49af6e7660a519053e5781059ab66",
        "31b4c7ed92b77d0cf63901cbe32e64e3ca8847201e60fa1995b062182ae0d327",
        "c15abdccfb2248d3078cac27e2eb7d99c55cfc9ae6ed54cd31874e761ca044e4",
    ),
    "resnet18-4b": (
        "aa79751d0ecb5412150443b473b717e5a61fd92ca14f8e613d046028337209c8",
        "24c57cfa844d0a52fafa24edc2ee0785a35464aa9a49ad544f5c8ebf01e4420d",
        "0f072870850e8a915af263223e7e080caf78a0addd2f4af14e4e9302e751ac12",
        "40ec9697918bbbc38a14bde6feca49702608b762e3d269ed806d54f90ae9e938",
    ),
    "resnet18-2b": (
        "e7abddca3eaf319cc35642c76c1953d2ba658d5f021969a1e1675cd18211e911",
        "562c3b82222e0c9432fb51f5376b7568e847a9b30315160e6eb8c75faafd2bb1",
        "0af0cd798d4df7b1551463b9b44fccd9c414f6b8062e3eb6afc9857a9e547aea",
        "27c43171cbaada0d91d393194d529b8d51c386fb9d676fa49f6d904867e8cc91",
    ),
}


def test_program_keys_are_pinned():
    die_a, die_b = spawn_seeds(0, 2)
    calibrated = OpticalProcessingCore(seed=die_a)
    calibrated.awc = CalibratedAwcMapper(calibrated.awc)
    dies = (
        OpticalProcessingCore(seed=die_a),
        OpticalProcessingCore(seed=die_b),
        calibrated,
        OpticalProcessingCore(seed=die_a, enable_crosstalk=False),
    )
    keys = {
        key: tuple(
            WeightProgramCache.key_for(opc, kernel_set(_stem(model)))
            for opc in dies
        )
        for key, model in _zoo().items()
    }
    assert keys == PINNED_KEYS


def test_key_for_reads_the_config_repr_by_identity():
    """Equal configs with different reprs keep different keys."""
    plus = OISAConfig(bpd_read_noise_fraction=0.0)
    minus = OISAConfig(bpd_read_noise_fraction=-0.0)
    assert plus == minus and repr(plus) != repr(minus)
    kernels = kernel_set(_stem(ModelSpec("lenet", 4).build(0)))
    key_plus = WeightProgramCache.key_for(
        OpticalProcessingCore(plus, seed=1), kernels
    )
    key_minus = WeightProgramCache.key_for(
        OpticalProcessingCore(minus, seed=1), kernels
    )
    assert key_plus != key_minus


# --------------------------------------------------------------------------
# Memo safety
# --------------------------------------------------------------------------
def test_kernel_set_is_built_once_per_weight_state():
    stem = _stem(ModelSpec("lenet", 4).build(0))
    kernels = kernel_set(stem)
    assert kernel_set(stem) is kernels

    stem.weight.data[0, 0, 0, 0] += 0.05  # in-place update
    updated = kernel_set(stem)
    assert updated is not kernels
    quantizer = stem.quantizer
    np.testing.assert_array_equal(
        updated.weights, quantizer.quantize(stem.weight.data)
    )

    stem.quantizer = UniformWeightQuantizer(4)  # same bits, new quantizer
    assert kernel_set(stem) is not updated
    rebound = kernel_set(stem)
    stem.quantizer.bits = 2  # in-place bit change
    coarse = kernel_set(stem)
    assert coarse is not rebound
    np.testing.assert_array_equal(
        coarse.weights, UniformWeightQuantizer(2).quantize(stem.weight.data)
    )


def test_kernel_set_tensor_is_read_only():
    model = ModelSpec("mlp", 4).build(0)
    kernels = kernel_set(_stem(model))
    with pytest.raises(ValueError):
        kernels.weights[0, 0] = 1.0

    server = FrameServer(num_nodes=1, seed=0)
    server.register_model("mlp", model)
    server.warmup()
    ideal = server.nodes[0].opc.programmed.ideal
    assert ideal is kernels.weights
    with pytest.raises(ValueError):
        ideal[0, 0] = 1.0

    uncached = HardwareFirstLayerPipeline(model, OpticalProcessingCore(seed=3))
    with pytest.raises(ValueError):
        uncached.opc.programmed.ideal[0, 0] = 1.0


def test_in_place_weight_update_reprograms_next_activation():
    models = {"lenet": ModelSpec("lenet", 4).build(0),
              "mlp": ModelSpec("mlp", 2).build(1)}
    server = FrameServer(num_nodes=1, seed=0)
    for key, model in models.items():
        server.register_model(key, model)
    server.warmup()  # lenet, then mlp: mlp is the programmed set
    node = server.nodes[0]
    stem = _stem(models["lenet"])
    old_key = WeightProgramCache.key_for(node.opc, kernel_set(stem))

    stem.weight.data *= -1.0
    misses = server.cache.stats.misses
    frame = np.random.default_rng(2).uniform(0.0, 1.0, (1, 28, 28))
    server.serve([FrameRequest(frame, "lenet")])
    assert server.cache.stats.misses == misses + 1

    quantizer = stem.quantizer
    fresh_kernels = KernelSet.build(
        quantizer.quantize(stem.weight.data), quantizer.scale(stem.weight.data)
    )
    fresh = FrameServer(num_nodes=1, seed=0)
    fresh.register_model("lenet", copy.deepcopy(models["lenet"]))
    fresh.warmup()
    record, expected = node.opc.programmed, fresh.nodes[0].opc.programmed
    np.testing.assert_array_equal(record.ideal, expected.ideal)
    np.testing.assert_array_equal(record.realized, expected.realized)
    assert record.scale == expected.scale and record.tuning == expected.tuning
    new_key = WeightProgramCache.key_for(node.opc, fresh_kernels)
    assert new_key != old_key
    assert new_key == WeightProgramCache.key_for(fresh.nodes[0].opc, fresh_kernels)
    assert new_key in server.cache._entries


def test_brownout_variant_gets_its_own_kernel_set():
    model = ModelSpec("lenet", 4).build(0)
    server = FrameServer(num_nodes=1, seed=0, brownout="standard")
    server.register_model("lenet", model)
    original = kernel_set(_stem(model))
    frame = np.random.default_rng(0).uniform(0.0, 1.0, (1, 28, 28))
    server.serve([FrameRequest(frame, "lenet")])  # registers the variant

    variant_stem = _stem(server._models["lenet@brownout2b"].model)
    variant = kernel_set(variant_stem)
    assert variant is not original
    assert kernel_set(_stem(model)) is original
    np.testing.assert_array_equal(
        variant.weights,
        UniformWeightQuantizer(2).quantize(variant_stem.weight.data),
    )
    die = server.nodes[0].opc
    assert WeightProgramCache.key_for(die, variant) != (
        WeightProgramCache.key_for(die, original)
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_memoized_timing_tables_equal_the_direct_formula(seed):
    """Every zoo model on both dies of a server, against an uncached
    pricing of that die's own freshly programmed kernel set."""
    scenario = build_scenario("zoo", frames=8, seed=0)
    shapes = {r.model_key: r.frame.shape for r in scenario.requests}
    assert len(shapes) == 8
    server = FrameServer(num_nodes=2, seed=seed)
    for key, model in scenario.models.items():
        server.register_model(key, model)
        server.warmup([key], frame_shape=shapes[key])
    for key, model in scenario.models.items():
        stem, shape, entry = _stem(model), shapes[key], server._models[key]
        for node in server.nodes:
            die = OpticalProcessingCore(seed=node.opc.seed)
            tuning = die.program(
                stem.quantizer.quantize(stem.weight.data),
                stem.quantizer.scale(stem.weight.data),
            ).tuning
            pipeline = node.pipelines[key]
            *timed, payload, radio_j = _frame_tables.__wrapped__(
                OISAConfig(),
                stem.quantizer.bits,
                entry._workload(shape),
                tuning.latency_s,
                tuning.energy_j,
                RadioModel(),
            )
            assert entry.timing_for(pipeline, shape) == tuple(timed)
            assert entry.transport[shape] == (payload, radio_j)


# --------------------------------------------------------------------------
# Registration-time validation
# --------------------------------------------------------------------------
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_register_model_rejects_non_finite_stem_weights(bad):
    server = FrameServer(num_nodes=2, seed=0)
    server.register_model("lenet", ModelSpec("lenet", 4).build(0))
    frames = np.random.default_rng(1).uniform(0.0, 1.0, (3, 1, 28, 28))
    server.serve_frames(frames, "lenet")
    nodes_before = [
        (node.active_model, node.programmed_model, node.frames, node.free_at)
        for node in server.nodes
    ]
    stats_before = dataclasses.asdict(server.cache.stats)

    model = ModelSpec("mlp", 4).build(1)
    _stem(model).weight.data[0, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"'broken'.*non-finite"):
            server.register_model("broken", model)

    assert "broken" not in server.model_keys
    assert [
        (node.active_model, node.programmed_model, node.frames, node.free_at)
        for node in server.nodes
    ] == nodes_before
    assert dataclasses.asdict(server.cache.stats) == stats_before
