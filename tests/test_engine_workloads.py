"""Tests for repro.engine.workloads — the scenario/zoo layer."""

import numpy as np
import pytest

from repro.engine.workloads import (
    ModelSpec,
    Scenario,
    _frame,
    _frames_batch,
    build_scenario,
    models_scenario,
    parse_model_specs,
    scenario_description,
    scenario_registry,
)


# ----------------------------------------------------------------------
# ModelSpec / zoo
# ----------------------------------------------------------------------
def test_model_spec_keys_and_shapes():
    assert ModelSpec("lenet", 4).key == "lenet-4b"
    assert ModelSpec("mlp", 2).frame_shape == (1, 28, 28)
    assert ModelSpec("vgg16", 1).frame_shape == (3, 32, 32)
    assert ModelSpec("resnet18").weight_bits == 4


def test_model_spec_validation():
    with pytest.raises(ValueError, match="unknown model family"):
        ModelSpec("alexnet")
    with pytest.raises(ValueError, match="weight_bits"):
        ModelSpec("lenet", 7)


def test_first_layer_stems_are_servable():
    """VGG/ResNet entries are first-layer pipelines the engine can run."""
    from repro.engine import FrameServer

    server = FrameServer(num_nodes=1, micro_batch=4, seed=0)
    spec = ModelSpec("vgg16", 4)
    server.register_model(spec.key, spec.build(seed=0))
    frames = np.random.default_rng(0).uniform(0.0, 1.0, (4, 3, 32, 32))
    report = server.serve_frames(frames, spec.key, offered_fps=200.0)
    assert report.delivered == 4
    # First-layer offload ships the stem's feature map, not logits.
    assert report.responses[0].output.shape == (64, 32, 32)


def test_parse_model_specs():
    specs = parse_model_specs("lenet:4, mlp:2 ,vgg16")
    assert [s.key for s in specs] == ["lenet-4b", "mlp-2b", "vgg16-4b"]
    with pytest.raises(ValueError):
        parse_model_specs("  ,  ")


def test_frames_batch_matches_per_frame_draws():
    """One flat draw split per spec equals the per-frame draws it
    replaces, across heterogeneous zoo frame shapes, and leaves the
    generator in the same state."""
    specs = [
        ModelSpec(family, bits)
        for family, bits in (
            ("lenet", 4),
            ("vgg16", 1),
            ("mlp", 2),
            ("resnet18", 3),
            ("lenet", 2),
        )
    ]
    batched_rng = np.random.default_rng(11)
    per_frame_rng = np.random.default_rng(11)
    batched = _frames_batch(batched_rng, specs)
    per_frame = [_frame(per_frame_rng, spec) for spec in specs]
    assert len(batched) == len(per_frame) == len(specs)
    for ours, theirs in zip(batched, per_frame):
        assert ours.shape == theirs.shape
        assert np.array_equal(ours, theirs)
    assert batched_rng.random() == per_frame_rng.random()


# ----------------------------------------------------------------------
# Scenario registry
# ----------------------------------------------------------------------
EXPECTED_SCENARIOS = (
    "default",
    "poisson",
    "poisson-burst",
    "diurnal",
    "mixed-tenants",
    "zoo",
)


def test_registry_contains_the_documented_scenarios():
    keys = scenario_registry()
    for name in EXPECTED_SCENARIOS:
        assert name in keys
        assert scenario_description(name)


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario"):
        build_scenario("rush-hour")


@pytest.mark.parametrize("name", EXPECTED_SCENARIOS)
def test_scenarios_generate_consistent_streams(name):
    scenario = build_scenario(name, frames=24, offered_fps=800.0, seed=1)
    assert scenario.name == name
    assert len(scenario.requests) == 24
    assert scenario.models
    for request in scenario.requests:
        assert request.model_key in scenario.models
    # Explicit arrivals (all scenarios except the historical default)
    # must be sorted — the response order equals the request order.
    arrivals = [r.arrival_s for r in scenario.requests]
    if name != "default":
        assert all(a is not None for a in arrivals)
        assert arrivals == sorted(arrivals)


@pytest.mark.parametrize("name", EXPECTED_SCENARIOS)
def test_scenarios_are_seed_deterministic(name):
    first = build_scenario(name, frames=16, offered_fps=500.0, seed=7)
    second = build_scenario(name, frames=16, offered_fps=500.0, seed=7)
    other = build_scenario(name, frames=16, offered_fps=500.0, seed=8)
    for a, b in zip(first.requests, second.requests):
        assert a.model_key == b.model_key
        assert a.arrival_s == b.arrival_s
        np.testing.assert_array_equal(a.frame, b.frame)
    assert any(
        not np.array_equal(a.frame, b.frame)
        for a, b in zip(first.requests, other.requests)
    )


def test_default_scenario_reproduces_the_historical_demo():
    """Same rng stream, model keys and split as the old hard-coded demo."""
    from repro.nn.models import build_lenet

    scenario = build_scenario("default", frames=10, offered_fps=1000.0, seed=5)
    rng = np.random.default_rng(5)
    stack = rng.uniform(0.0, 1.0, (10, 1, 28, 28))
    for i, request in enumerate(scenario.requests):
        np.testing.assert_array_equal(request.frame, stack[i])
        assert request.model_key == ("model-a" if i < 5 else "model-b")
        assert request.arrival_s is None  # server derives from the rate
    reference = build_lenet(seed=5)
    model = scenario.models["model-a"]
    np.testing.assert_array_equal(
        model[1].weight.data, reference[1].weight.data
    )


def test_zoo_scenario_covers_every_family_and_several_bit_widths():
    scenario = build_scenario("zoo", frames=16, offered_fps=500.0, seed=0)
    families = {key.rsplit("-", 1)[0] for key in scenario.models}
    assert families == {"lenet", "mlp", "vgg16", "resnet18"}
    bit_widths = {key.rsplit("-", 1)[1] for key in scenario.models}
    assert len(bit_widths) >= 2


def test_mixed_tenants_scenario_defines_slo_classes():
    scenario = build_scenario(
        "mixed-tenants", frames=20, offered_fps=1000.0, seed=0
    )
    classes = scenario.slo_classes
    assert classes["lenet-4b"].name == "interactive"
    assert classes["lenet-4b"].priority > classes["mlp-2b"].priority
    assert classes["mlp-2b"].max_queue_s is not None
    tenants = {r.tenant for r in scenario.requests}
    assert tenants == {"interactive", "batch"}


def test_models_scenario_round_robins_uniformly():
    scenario = models_scenario(
        "lenet:4,mlp:2", frames=8, offered_fps=400.0, seed=0
    )
    keys = [r.model_key for r in scenario.requests]
    assert keys == ["lenet-4b", "mlp-2b"] * 4
    assert scenario.requests[1].arrival_s == pytest.approx(1.0 / 400.0)


def test_scenarios_serve_end_to_end():
    """Three distinct generators run through the full engine."""
    from repro.engine import FrameServer

    for name in ("poisson", "diurnal", "zoo"):
        scenario = build_scenario(name, frames=12, offered_fps=600.0, seed=0)
        server = FrameServer(num_nodes=2, micro_batch=4, seed=0)
        report = server.serve_scenario(scenario)
        assert report.stream.frames == 12
        delivered = [r for r in report.responses if not r.dropped]
        assert delivered
        assert all(r.output is not None for r in delivered)


# ----------------------------------------------------------------------
# Scenario.at_rate
# ----------------------------------------------------------------------
def _assert_same_scenario(expected, actual):
    assert actual.name == expected.name
    assert actual.description == expected.description
    assert actual.offered_fps == expected.offered_fps
    assert actual.slo_classes == expected.slo_classes
    assert list(actual.models) == list(expected.models)
    for key, model in expected.models.items():
        ours = actual.models[key].parameters()
        theirs = model.parameters()
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            assert a.data.tobytes() == b.data.tobytes()
    assert len(actual.requests) == len(expected.requests)
    for a, b in zip(actual.requests, expected.requests):
        assert a.frame.tobytes() == b.frame.tobytes()
        assert a.model_key == b.model_key
        assert repr(a.arrival_s) == repr(b.arrival_s)
        assert a.tenant == b.tenant


@pytest.mark.parametrize("name", scenario_registry())
def test_at_rate_matches_a_fresh_build(name):
    base = build_scenario(name, frames=24, offered_fps=500.0, seed=3)
    retimed = base.at_rate(1700.0)
    _assert_same_scenario(
        build_scenario(name, frames=24, offered_fps=1700.0, seed=3), retimed
    )
    for key, model in base.models.items():
        assert retimed.models[key] is model
    # A re-timed scenario re-times again, back to the base stream.
    _assert_same_scenario(base, retimed.at_rate(500.0))


def test_at_rate_refuses_scenarios_the_registry_did_not_build():
    from dataclasses import replace

    scenario = build_scenario("poisson", frames=8, offered_fps=500.0, seed=0)
    edited = replace(scenario, requests=scenario.requests[:4])
    with pytest.raises(ValueError, match="cannot be re-timed"):
        edited.at_rate(900.0)
    adhoc = models_scenario("lenet:4", frames=4, offered_fps=500.0, seed=0)
    with pytest.raises(ValueError, match="cannot be re-timed"):
        adhoc.at_rate(900.0)
    hand_built = Scenario("mine", "", scenario.models, scenario.requests)
    with pytest.raises(ValueError, match="cannot be re-timed"):
        hand_built.at_rate(900.0)
    with pytest.raises(ValueError, match="offered_fps"):
        scenario.at_rate(0.0)
