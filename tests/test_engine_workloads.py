"""Tests for repro.engine.workloads — the scenario/zoo layer."""

import numpy as np
import pytest

from repro.engine.workloads import (
    ModelSpec,
    Scenario,
    _frames_batch,
    _PixelRecorder,
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
    """One flat draw split per spec equals one ``uniform`` draw per
    frame, across heterogeneous zoo frame shapes, and leaves the
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
    batched = _frames_batch(batched_rng, specs, _PixelRecorder())
    per_frame = [
        per_frame_rng.uniform(0.0, 1.0, spec.frame_shape) for spec in specs
    ]
    assert len(batched) == len(per_frame) == len(specs)
    for ours, theirs in zip(batched, per_frame):
        assert ours.shape == theirs.shape
        assert np.array_equal(ours, theirs)
    assert batched_rng.random() == per_frame_rng.random()


def test_advance_skips_exactly_one_uniform_draw():
    """What a re-time relies on: ``advance(n)`` moves NumPy's default
    generator exactly as far as one ``uniform(0, 1, n)`` draw, between
    the exponential and ``random`` draws the generators make."""
    drawn = np.random.default_rng(29)
    skipped = np.random.default_rng(29)
    for n in (784, 3072, 12288):
        for rng in (drawn, skipped):
            rng.exponential(1.0 / 700.0, 5)
        drawn.uniform(0.0, 1.0, n)
        skipped.bit_generator.advance(n)
        for rng in (drawn, skipped):
            rng.random(7)
    assert drawn.bit_generator.state == skipped.bit_generator.state
    np.testing.assert_array_equal(
        drawn.exponential(1.0, 4), skipped.exponential(1.0, 4)
    )
    np.testing.assert_array_equal(drawn.random(4), skipped.random(4))


def test_pixel_replay_returns_the_recorded_frames():
    lenet, vgg = (1, 28, 28), (3, 32, 32)
    recorded_rng = np.random.default_rng(5)
    recorder = _PixelRecorder()
    first = recorder.draw(recorded_rng, [lenet, lenet])
    second = recorder.draw(recorded_rng, [vgg])
    recording = recorder.finish()
    assert all(not frame.flags.writeable for frame in first + second)
    replayed_rng = np.random.default_rng(5)
    replay = _PixelRecorder(recording)
    assert replay.draw(replayed_rng, [lenet, lenet]) is first
    assert replay.draw(replayed_rng, [vgg]) is second
    assert replay.finish() is recording
    assert replayed_rng.bit_generator.state == recorded_rng.bit_generator.state


def test_pixel_replay_refuses_misaligned_draws():
    lenet, vgg = (1, 28, 28), (3, 32, 32)
    rng = np.random.default_rng(5)
    recorder = _PixelRecorder()
    recorder.draw(rng, [lenet, vgg])
    recording = recorder.finish()
    # Another size, the same pixels in other shapes, one draw too many.
    with pytest.raises(RuntimeError, match="pixel draw 0"):
        _PixelRecorder(recording).draw(rng, [lenet])
    with pytest.raises(RuntimeError, match="pixel draw 0"):
        _PixelRecorder(recording).draw(rng, [vgg, lenet])
    replay = _PixelRecorder(recording)
    replay.draw(rng, [lenet, vgg])
    with pytest.raises(RuntimeError, match="pixel draw 1"):
        replay.draw(rng, [lenet])
    # A replay that leaves recorded draws unused.
    with pytest.raises(RuntimeError, match="made 0 pixel draws"):
        _PixelRecorder(recording).finish()


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


@pytest.mark.parametrize("frames", [True, 2.5, 4.0])
@pytest.mark.parametrize("name", scenario_registry())
def test_build_scenario_rejects_non_integer_frames(name, frames):
    with pytest.raises(ValueError, match="frames"):
        build_scenario(name, frames=frames)


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


@pytest.mark.parametrize("frames", [True, 2.5, 4.0])
def test_models_scenario_rejects_non_integer_frames(frames):
    with pytest.raises(ValueError, match="frames"):
        models_scenario("lenet:4", frames=frames)


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
    again = retimed.at_rate(500.0)
    _assert_same_scenario(base, again)
    # Both re-times serve the base build's frame arrays, which are
    # read-only so no serve can change another's pixels.
    frame_ids = {id(request.frame) for request in base.requests}
    assert len(frame_ids) == len(base.requests)
    assert {id(request.frame) for request in retimed.requests} == frame_ids
    assert {id(request.frame) for request in again.requests} == frame_ids
    assert all(not r.frame.flags.writeable for r in base.requests)
    with pytest.raises(ValueError, match="read-only"):
        base.requests[0].frame[0, 0, 0] = 0.5


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
