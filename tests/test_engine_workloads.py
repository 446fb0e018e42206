"""Tests for repro.engine.workloads — the scenario/zoo layer."""

import hashlib

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
        assert build_scenario(name, frames=1).description


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


# ----------------------------------------------------------------------
# Build pins
# ----------------------------------------------------------------------
def _scenario_digest(scenario):
    """sha256 over everything a build produces: name, description, SLO
    classes, offered rate, model keys and parameter bytes, and per
    request its key, exact arrival, tenant, frame shape and frame bytes."""
    digest = hashlib.sha256()

    def feed(value):
        digest.update(str(value).encode())
        digest.update(b"\0")

    feed(scenario.name)
    feed(scenario.description)
    feed(repr(scenario.slo_classes))
    feed(repr(scenario.offered_fps))
    for key, model in scenario.models.items():
        feed(key)
        for parameter in model.parameters():
            digest.update(parameter.data.tobytes())
    for request in scenario.requests:
        arrival = request.arrival_s
        feed(request.model_key)
        feed(None if arrival is None else repr(float(arrival)))
        feed(request.tenant)
        feed(request.frame.shape)
        digest.update(request.frame.tobytes())
    return digest.hexdigest()


#: Per registered key: digests of the builds at (frames, fps, seed) =
#: (24, 700, 0) and (13, 2600, 3), then of the second re-timed to 777
#: FPS.  They move only with an intentional change to a scenario's
#: traffic, models or SLO classes.
SCENARIO_PINS = {
    "default": (
        "c569069eba90768adac5f9c205f6971815dbaaa1d4f6167a44f09485e4168dc8",
        "6ec3c14bb8852fbac2b2eb3bcc0f1a1c3e1133471f5980876c0a091d59e398cc",
        "8034a745a8a932fa6b4072fb7eac881814f1d1056e1f801e00425764a3ab1d6f",
    ),
    "poisson": (
        "f9199da0c9da6b0f673d647e08c774b2d24313ba1ca0c0f798843eb70e040311",
        "b521b62e91640f735fc248dca538afc68c48adaa4784c87ba5890a58528507c3",
        "df0d2bbb72ea7747fb22123f2bde3c16d1f60cf4183836d8f3fbfd24cd7693b5",
    ),
    "poisson-burst": (
        "cb7b3f76693bd4eaaa4389e3fba7f478e03a52d8ecaccf84b71891dd55d8da49",
        "36a81247bb8f32777fb49699d49d65f6e6d5a349e397eb5a24cb68fe57510bc1",
        "3705ada0f7ec85b6640d43e4a670e1c1d178178a30a37613456b3897dfc0c115",
    ),
    "diurnal": (
        "5b2c02b10f7e73934c1b1f439ed695afecac02750f1c24173b1974d4e60628d2",
        "5ce3469e381f01e53c48b6716bcfab845015d07ee303a1103d109ffe4f6eef3b",
        "17ee19e1147277d11aff39a2bf450241f3d396aef277b8ef34e97270a3e64ab3",
    ),
    "mixed-tenants": (
        "ab0f8d2116b3d74cd6940e1eb5df3bb8b48f5081ee1070380eef0a27c9f2fb78",
        "853ee95ea2234f6e5ef5d3f04b270d18e68298d7ea262495865121d82374da45",
        "ac928fa74410e2e511dda00159db8b69b88e883983a547f9a9d48028863a0639",
    ),
    "chaos": (
        "a649360b23c9a5eb06174bcaecff061363ab239a5d16528cc44f1052c69a4f90",
        "a7d4fe7180ff041967aa281d1831aa1ea5c72c141413370b48557b1e975a9f09",
        "7876754a5247301cce5e5a04d79a4dd61487bf5ecd33b21ebad1a4433e70d2bd",
    ),
    "diurnal-regions": (
        "05adbdf35381f940e1519565b713e1ba459f40f770a02e56210cc7a1f063cf6f",
        "51e822dd5fe77f3fb093c4395838394c5042ba4c522b42edc5d3c16ccc15511e",
        "c4a1255f768b2fc59d207d06c13e1ce50c23c05e188854cdd53844b1c6ef79fd",
    ),
    "zoo": (
        "2dc8e46ef0e8755e68a292af9b122c988155c9e4d3478844e4a05b3d5bc44d34",
        "a576998853a1110cda70f2cf9a942e238de5a2a291e2ce7863635267696194f6",
        "95fad36f68e077dbacfcef42853058ae3ca9ba69b061677a5d8205e00187336a",
    ),
}


def test_every_registered_scenario_is_pinned():
    assert tuple(SCENARIO_PINS) == scenario_registry()


@pytest.mark.parametrize("name", sorted(SCENARIO_PINS))
def test_scenario_builds_match_their_pins(name):
    first, second, retimed = SCENARIO_PINS[name]
    assert _scenario_digest(
        build_scenario(name, frames=24, offered_fps=700.0, seed=0)
    ) == first
    base = build_scenario(name, frames=13, offered_fps=2600.0, seed=3)
    assert _scenario_digest(base) == second
    assert _scenario_digest(base.at_rate(777.0)) == retimed


def test_models_scenario_build_is_pinned():
    scenario = models_scenario(
        "lenet:4,mlp:2,vgg16:1", frames=9, offered_fps=400.0, seed=2
    )
    assert _scenario_digest(scenario) == (
        "05a79fab49a50c1a4331e92c314bd5a96a4ec0a6312486fe79941cd460e18eee"
    )
