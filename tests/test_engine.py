"""Tests for repro.engine — weight-program cache and FrameServer."""

import sys
import threading

import numpy as np
import pytest

from repro.core.opc import KernelSet, OpticalProcessingCore
from repro.core.pipeline import HardwareFirstLayerPipeline
from repro.engine import FrameRequest, FrameServer, WeightProgramCache
from repro.engine.workloads import ModelSpec, build_scenario
from repro.nn.models import build_lenet, build_mlp
from repro.nn.quant import UniformWeightQuantizer
from repro.util import blas


@pytest.fixture
def kernel_set():
    rng = np.random.default_rng(0)
    weights = rng.normal(size=(8, 1, 3, 3)) * 0.1
    quantizer = UniformWeightQuantizer(4)
    return KernelSet.build(quantizer.quantize(weights), quantizer.scale(weights))


# --------------------------------------------------------------------------
# WeightProgramCache
# --------------------------------------------------------------------------
def test_cache_miss_then_hit(kernel_set):
    cache = WeightProgramCache()
    opc = OpticalProcessingCore(seed=1)

    first, hit1 = cache.get_or_program(opc, kernel_set)
    again, hit2 = cache.get_or_program(opc, kernel_set)
    assert (hit1, hit2) == (False, True)
    assert again is first
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    assert cache.stats.hit_rate == 0.5
    # The hit installed the cached record on the OPC.
    assert opc.programmed is first


def test_cache_hit_skips_remapping_work(kernel_set):
    """A hit restores the exact realized tensor without recomputation."""
    cache = WeightProgramCache()
    opc = OpticalProcessingCore(seed=1)
    programmed, _ = cache.get_or_program(opc, kernel_set)

    other = np.zeros_like(kernel_set.weights)
    opc.program(other, 1.0)  # kernel swap to a different set
    restored, hit = cache.get_or_program(opc, kernel_set)
    assert hit
    np.testing.assert_array_equal(restored.realized, programmed.realized)
    np.testing.assert_array_equal(opc.programmed.realized, programmed.realized)


def test_cache_is_seed_sensitive(kernel_set):
    """Two dies (different AWC mismatch) must never share a program."""
    cache = WeightProgramCache()
    die_a = OpticalProcessingCore(seed=1)
    die_b = OpticalProcessingCore(seed=2)

    program_a, hit_a = cache.get_or_program(die_a, kernel_set)
    program_b, hit_b = cache.get_or_program(die_b, kernel_set)
    assert not hit_a and not hit_b  # same kernels, different dies -> two entries
    assert len(cache) == 2
    assert not np.array_equal(program_a.realized, program_b.realized)


def test_cache_key_varies_with_bits_and_scale(kernel_set):
    opc = OpticalProcessingCore(seed=1)
    key = WeightProgramCache.key_for(opc, kernel_set)
    rescaled = KernelSet.build(kernel_set.weights, kernel_set.scale * 2)
    assert WeightProgramCache.key_for(opc, rescaled) != key

    coarse = OpticalProcessingCore(
        opc.config.with_weight_bits(2), seed=1
    )
    assert WeightProgramCache.key_for(coarse, kernel_set) != key


def test_cache_key_covers_whole_config(kernel_set):
    """Any architecture/device parameter change must separate programs."""
    from dataclasses import replace

    from repro.core.config import OISAConfig

    reference = OpticalProcessingCore(OISAConfig(), seed=1)
    key = WeightProgramCache.key_for(reference, kernel_set)
    retuned = OpticalProcessingCore(
        replace(OISAConfig(), num_banks=40), seed=1
    )
    assert WeightProgramCache.key_for(retuned, kernel_set) != key
    no_crosstalk = OpticalProcessingCore(
        OISAConfig(), seed=1, enable_crosstalk=False
    )
    assert WeightProgramCache.key_for(no_crosstalk, kernel_set) != key


def test_pipeline_uses_shared_cache():
    """Two models multiplexed over one OPC swap via cache, not remapping."""
    cache = WeightProgramCache()
    opc = OpticalProcessingCore(seed=0, enable_read_noise=False)
    pipe_a = HardwareFirstLayerPipeline(build_lenet(seed=0), opc, program_cache=cache)
    pipe_b = HardwareFirstLayerPipeline(build_lenet(seed=1), opc, program_cache=cache)
    assert cache.stats.misses == 2

    frame = np.random.default_rng(3).uniform(0, 1, (1, 1, 28, 28))
    pipe_a.activate()
    out_a = pipe_a.forward(frame)
    pipe_b.activate()
    pipe_b.forward(frame)
    pipe_a.activate()
    out_a_again = pipe_a.forward(frame)
    assert cache.stats.misses == 2  # swaps were all hits
    assert cache.stats.hits >= 3
    np.testing.assert_allclose(out_a, out_a_again)


# --------------------------------------------------------------------------
# FrameServer
# --------------------------------------------------------------------------
@pytest.fixture
def frames():
    return np.random.default_rng(5).uniform(0.0, 1.0, (32, 1, 28, 28))


@pytest.fixture
def server():
    server = FrameServer(num_nodes=1, micro_batch=8, seed=0)
    server.register_model("a", build_lenet(seed=0))
    server.register_model("b", build_lenet(seed=1))
    return server


def test_serve_delivers_all_at_budget(server, frames):
    report = server.serve_frames(frames, "a", offered_fps=1000.0)
    assert report.stream.frames == 32
    assert report.stream.dropped == 0
    assert report.delivered == 32
    assert report.wall_clock_fps > 0.0
    assert all(resp.output is not None for resp in report.responses)
    assert report.responses[0].output.shape == (10,)


def test_serve_drop_statistics_under_oversubscription(server, frames):
    report = server.serve_frames(frames, "a", offered_fps=5000.0)
    assert report.stream.dropped > 0
    assert 0.0 < report.stream.drop_rate < 1.0
    dropped = [resp for resp in report.responses if resp.dropped]
    assert dropped and all(resp.output is None for resp in dropped)
    assert all(resp.node_id == -1 for resp in dropped)


def test_kernel_swaps_are_remap_events_and_cache_hits(server, frames):
    requests = [
        FrameRequest(frames[i], "a" if (i // 8) % 2 == 0 else "b")
        for i in range(32)
    ]
    first = server.serve(requests, offered_fps=500.0)
    # Two fresh kernel sets -> two misses; later swap-backs hit.
    assert first.cache_misses == 2
    remaps = sum(event.remapped for event in first.stream.events)
    assert remaps == 4  # initial load of "a" plus the three run boundaries
    steady = server.serve(requests, offered_fps=500.0)
    assert steady.cache_misses == 0
    assert steady.cache_hits > 0


def test_remapped_frames_cost_more_simulated_energy(server, frames):
    steady = server.serve_frames(frames, "a", offered_fps=500.0)
    alternating = server.serve(
        [
            FrameRequest(frames[i], "a" if i % 2 == 0 else "b")
            for i in range(32)
        ],
        offered_fps=500.0,
    )
    assert alternating.stream.total_energy_j > steady.stream.total_energy_j


def test_multi_node_spreads_load():
    server = FrameServer(num_nodes=2, micro_batch=8, seed=0)
    server.register_model("a", build_lenet(seed=0))
    server.register_model("b", build_lenet(seed=1))
    frames = np.random.default_rng(6).uniform(0, 1, (32, 1, 28, 28))
    requests = [
        FrameRequest(frames[i], "a" if i < 16 else "b") for i in range(32)
    ]
    report = server.serve(requests, offered_fps=1000.0)
    assert report.stream.dropped == 0
    assert sorted(report.node_frames.values()) == [16, 16]


def test_two_nodes_double_drop_free_capacity():
    frames = np.random.default_rng(6).uniform(0, 1, (40, 1, 28, 28))
    single = FrameServer(num_nodes=1, micro_batch=8, seed=0)
    double = FrameServer(num_nodes=2, micro_batch=8, seed=0)
    for server in (single, double):
        server.register_model("a", build_lenet(seed=0))
    at_2x = lambda server: server.serve_frames(frames, "a", offered_fps=1990.0)
    assert at_2x(single).stream.dropped > 0
    assert at_2x(double).stream.dropped == 0


def test_unknown_model_key_rejected(server, frames):
    with pytest.raises(ValueError):
        server.serve([FrameRequest(frames[0], "nope")])


def test_duplicate_model_key_rejected(server):
    with pytest.raises(ValueError):
        server.register_model("a", build_lenet(seed=9))


def test_fleet_payload_and_radio_accounting(server, frames):
    report = server.serve_frames(frames, "a", offered_fps=1000.0)
    assert report.payload_bytes > 0
    assert report.radio_energy_j > 0.0
    # Payload scales with delivered frames.
    half = server.serve_frames(frames[:16], "a", offered_fps=1000.0)
    assert report.payload_bytes == 2 * half.payload_bytes


def test_explicit_arrival_times_respected(server, frames):
    requests = [
        FrameRequest(frames[i], "a", arrival_s=i * 0.01) for i in range(4)
    ]
    report = server.serve(requests)
    arrivals = [event.arrival_s for event in report.stream.events]
    assert arrivals == [0.0, 0.01, 0.02, 0.03]
    assert report.stream.dropped == 0


def test_out_of_order_arrivals_scheduled_by_time(server, frames):
    """Explicit timestamps may interleave; admission sorts by arrival."""
    requests = [
        FrameRequest(frames[0], "a", arrival_s=0.005),
        FrameRequest(frames[1], "a", arrival_s=0.001),
    ]
    report = server.serve(requests)
    assert report.stream.dropped == 0
    assert [resp.index for resp in report.responses] == [0, 1]


def test_interleaved_nodes_do_not_fragment_batches(monkeypatch):
    """Load spreading across nodes must keep per-node runs intact: each
    node's 16-frame run chunks at the micro-batch, never on interleave."""
    frames = np.random.default_rng(6).uniform(0, 1, (32, 1, 28, 28))
    batch_sizes = []
    original = HardwareFirstLayerPipeline.forward

    def spy(self, x, **kwargs):
        batch_sizes.append(x.shape[0])
        return original(self, x, **kwargs)

    monkeypatch.setattr(HardwareFirstLayerPipeline, "forward", spy)
    server = FrameServer(num_nodes=2, micro_batch=8, seed=0)
    server.register_model("a", build_lenet(seed=0))
    # ~2x one node's rate: admitted frames alternate between the two dies.
    report = server.serve_frames(frames, "a", offered_fps=1990.0)
    assert report.stream.dropped == 0
    assert set(report.node_frames.values()) == {16}
    assert batch_sizes == [8, 8, 8, 8]


def test_server_outputs_match_naive_numerics():
    """Micro-batching and cached kernel swaps must not change what is
    computed.  Oracle: with noise off, one pipeline forward per frame,
    rebuilt (reprogrammed) at the mid-stream swap, gives the same logits
    to float tolerance."""
    frames = np.random.default_rng(7).uniform(0.0, 1.0, (64, 1, 28, 28))
    models = {"model-a": build_lenet(seed=0), "model-b": build_lenet(seed=1)}
    keys = ["model-a" if i < 32 else "model-b" for i in range(64)]
    server = FrameServer(num_nodes=1, micro_batch=16, seed=0, enable_noise=False)
    for key, model in models.items():
        server.register_model(key, model)
    report = server.serve(
        [FrameRequest(frame, key) for frame, key in zip(frames, keys)],
        offered_fps=1000.0,
    )
    served = np.stack([resp.output for resp in report.responses])

    opc = OpticalProcessingCore(
        seed=server.nodes[0].opc.seed,
        enable_crosstalk=False,
        enable_read_noise=False,
    )
    naive, active = [], None
    for frame, key in zip(frames, keys):
        if key != active:
            pipeline, active = HardwareFirstLayerPipeline(models[key], opc), key
        naive.append(pipeline.forward(frame[None]))
    np.testing.assert_allclose(
        served, np.concatenate(naive), rtol=1e-9, atol=1e-9
    )


#: case -> (micro-batch, model of each frame in arrival order)
NOISY_STREAMS = {
    # A LeNet read-out is 3456 floats and a VGG-16 stem's 65536, so the
    # die's read-noise slabs close mid-stream (after four of each; the
    # ragged case's after each chunk of four).
    "alternating stems": (1, ["lenet", "vgg"] * 5),
    "ragged last chunk": (4, ["vgg"] * 10),
}


def _noisy_stream_server(micro_batch):
    models = {
        "lenet": build_lenet(seed=0),
        "vgg": ModelSpec("vgg16", 4).build(seed=0),
    }
    server = FrameServer(num_nodes=1, micro_batch=micro_batch, seed=0)
    for key, model in models.items():
        server.register_model(key, model)
    return server, models


def _frame_for(key, rng):
    shape = (1, 28, 28) if key == "lenet" else (3, 32, 32)
    return rng.uniform(0.0, 1.0, shape)


@pytest.mark.parametrize("case", sorted(NOISY_STREAMS))
def test_noisy_serve_draws_exactly_the_inline_stream(case):
    """Read noise drawn ahead of compute is the inline stream: same
    floats, same generator state, on a second serve of a reused server
    too.  Oracle: a same-seed twin OPC drawing inline, running one
    pipeline forward per served chunk in arrival order (a GEMM's last
    bits follow its batch, so the chunks must match)."""
    micro_batch, keys = NOISY_STREAMS[case]
    rng = np.random.default_rng(5)
    frames = [_frame_for(key, rng) for key in keys]
    server, models = _noisy_stream_server(micro_batch)
    die = server.nodes[0].opc
    twin = OpticalProcessingCore(seed=die.seed)
    pipelines = {
        key: HardwareFirstLayerPipeline(model, twin)
        for key, model in models.items()
    }
    active = None
    for _ in range(2):
        report = server.serve(
            [FrameRequest(frame, key) for frame, key in zip(frames, keys)],
            offered_fps=50.0,
        )
        assert report.delivered == len(frames)
        expected = []
        for start in range(0, len(frames), micro_batch):
            key = keys[start]
            if key != active:
                pipelines[key].activate()
                active = key
            batch = np.stack(frames[start : start + micro_batch])
            expected.extend(pipelines[key].forward(batch))
        assert len(expected) == len(report.responses)
        for response, logits in zip(report.responses, expected):
            assert response.output.tobytes() == logits.tobytes()
        assert die._read_rng.bit_generator.state == twin._read_rng.bit_generator.state
        assert die.read_noise_source is None


def _blas_count():
    functions = blas._thread_count_functions()
    return None if functions is None else functions[0]()


def _set_blas_count(count):
    blas._thread_count_functions()[1](count)


@pytest.mark.parametrize("preset", [1, 2])
def test_compute_leaves_no_thread_and_no_blas_change(preset):
    """The helper thread is joined and the caller's BLAS count restored
    when ``serve`` returns; while compute runs the count is 1."""
    server, models = _noisy_stream_server(2)
    head = models["lenet"].layers[-1]
    counts_in_compute = []

    def forward(x, training=False):
        counts_in_compute.append(_blas_count())
        return type(head).forward(head, x, training=training)

    head.forward = forward
    rng = np.random.default_rng(6)
    keys = ["lenet", "vgg"] * 4
    requests = [FrameRequest(_frame_for(key, rng), key) for key in keys]
    caller = _blas_count()
    if caller is not None:
        _set_blas_count(preset)
    try:
        threads = threading.active_count()
        report = server.serve(requests, offered_fps=50.0)
        assert report.delivered == len(requests)
        assert threading.active_count() == threads
        if caller is not None:
            assert _blas_count() == preset
            assert set(counts_in_compute) == {1}
    finally:
        if caller is not None:
            _set_blas_count(caller)


class _HeadFailure(Exception):
    pass


#: case -> (model, micro-batch): the head raises on its third call
FAILING_HEADS = {
    # inside the die's first slab, read in part
    "first slab": ("lenet", 1),
    # inside its second slab, after a first one read in full: a chunk of
    # 40 LeNet frames reads out 138240 floats
    "second slab": ("lenet", 40),
}


@pytest.mark.parametrize("case", sorted(FAILING_HEADS))
def test_a_failing_head_leaves_the_die_drawing_inline(case):
    """A head that raises mid-compute propagates unchanged, leaves no
    thread and no BLAS change, and the die's generator stands where the
    inline draws would have left it: later forwards draw inline."""
    key, micro_batch = FAILING_HEADS[case]
    server, models = _noisy_stream_server(micro_batch)
    head = models[key].layers[-1]
    calls = []
    failure = _HeadFailure("head failed")

    def forward(x, training=False):
        calls.append(len(x))
        if len(calls) == 3:
            raise failure
        return type(head).forward(head, x, training=training)

    head.forward = forward
    rng = np.random.default_rng(7)
    frames = [_frame_for(key, rng) for _ in range(4 * micro_batch + 2)]
    threads, caller = threading.active_count(), _blas_count()
    with pytest.raises(_HeadFailure) as raised:
        server.serve(
            [FrameRequest(frame, key) for frame in frames],
            offered_fps=50.0,
        )
    assert raised.value is failure
    assert threading.active_count() == threads
    assert _blas_count() == caller
    die = server.nodes[0].opc
    assert die.read_noise_source is None

    del head.forward
    twin = OpticalProcessingCore(seed=die.seed)
    oracle = HardwareFirstLayerPipeline(models[key], twin)
    for start in range(0, 3 * micro_batch, micro_batch):
        # the third chunk's read-out ran before its head raised
        oracle.forward(np.stack(frames[start : start + micro_batch]))
    assert die._read_rng.bit_generator.state == twin._read_rng.bit_generator.state
    served = server.nodes[0].pipelines[key].forward(frames[-1][None])
    assert served.tobytes() == oracle.forward(frames[-1][None]).tobytes()
    assert die._read_rng.bit_generator.state == twin._read_rng.bit_generator.state


def test_zoo_serve_is_unchanged_under_a_short_switch_interval():
    """Stress the helper handoff: with the interpreter switching threads
    every microsecond, a 4-node zoo serve's record equals a normal one."""
    scenario = build_scenario("zoo", frames=32, seed=0)

    def record():
        return FrameServer(num_nodes=4, seed=0).serve_scenario(scenario).record()

    expected = record()
    stressed = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=lambda: stressed.append(record()))
        worker.start()
        worker.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert stressed == [expected]


#: case -> (model spec, two frame shapes its on-die layer accepts)
MIXED_SHAPES = {
    "dense stem": (ModelSpec("mlp", 2), (1, 28, 28), (784,)),
    "conv stem": (ModelSpec("vgg16", 4), (3, 32, 32), (3, 36, 36)),
}


@pytest.mark.parametrize("case", sorted(MIXED_SHAPES))
def test_one_model_serves_two_frame_shapes_on_one_node(case):
    """Both shapes pass validation, so both must serve: a micro-batch
    never stacks two shapes.  Oracle: a same-seed server serving each
    shape's frames as its own stream, in the same order, computes the
    same bits (same chunks, same read-noise draws)."""
    spec, first, second = MIXED_SHAPES[case]
    rng = np.random.default_rng(2)
    frames = [rng.uniform(0.0, 1.0, first) for _ in range(3)]
    frames += [rng.uniform(0.0, 1.0, second) for _ in range(3)]
    model = spec.build(seed=0)

    def server():
        server = FrameServer(num_nodes=1, micro_batch=4, seed=0)
        server.register_model("m", model)
        return server

    mixed = server().serve(
        [FrameRequest(frame, "m") for frame in frames], offered_fps=100.0
    )
    assert mixed.delivered == len(frames)
    separate = server()
    expected = []
    for block in (frames[:3], frames[3:]):
        report = separate.serve(
            [FrameRequest(frame, "m") for frame in block], offered_fps=100.0
        )
        expected += [response.output for response in report.responses]
    for response, output in zip(mixed.responses, expected):
        assert np.array_equal(response.output, output)


def test_wrong_frame_shape_rejected_clearly(server, frames):
    with pytest.raises(ValueError, match="1-channel frames"):
        server.serve([FrameRequest(np.zeros((3, 28, 28)), "a")])
    with pytest.raises(ValueError, match=r"\(C, H, W\)"):
        server.serve([FrameRequest(np.zeros((28, 28)), "a")])


#: case -> (offending request, expected message fragment)
BAD_REQUESTS = {
    "negative arrival": (
        FrameRequest(np.zeros((1, 28, 28)), "a", arrival_s=-1e-3),
        "arrival_s",
    ),
    "nan arrival": (
        FrameRequest(np.zeros((1, 28, 28)), "a", arrival_s=float("nan")),
        "arrival_s",
    ),
    "inf arrival": (
        FrameRequest(np.zeros((1, 28, 28)), "a", arrival_s=float("inf")),
        "arrival_s",
    ),
    "unknown model": (FrameRequest(np.zeros((1, 28, 28)), "zz"), "unknown"),
    "conv channels": (FrameRequest(np.zeros((3, 28, 28)), "a"), "1-channel"),
    "conv rank": (FrameRequest(np.zeros((28, 28)), "a"), r"\(C, H, W\)"),
    "empty conv frame": (
        FrameRequest(np.zeros((1, 0, 28)), "a"),
        r"nonzero height and width, got shape \(1, 0, 28\)",
    ),
    "dense length": (FrameRequest(np.zeros((1, 8, 9)), "mlp"), "64 features"),
    "list frame": (
        FrameRequest(np.zeros((1, 28, 28)).tolist(), "a"),
        "ndarray",
    ),
    "complex frame": (
        FrameRequest(np.zeros((1, 28, 28), dtype=complex), "a"),
        "dtype must be bool, integer or float, got complex128",
    ),
    "str frame": (
        FrameRequest(np.full((1, 28, 28), "0.5"), "a"),
        "dtype must be bool, integer or float, got <U3",
    ),
    "object frame": (
        FrameRequest(np.zeros((1, 28, 28)).astype(object), "a"),
        "dtype must be bool, integer or float, got object",
    ),
}


def _serving_state(server):
    return (
        server.cache.stats.hits,
        server.cache.stats.misses,
        [
            (n.free_at, n.frames, n.active_model, n.programmed_model)
            for n in server.nodes
        ],
    )


@pytest.mark.parametrize("compute", [True, False])
@pytest.mark.parametrize("case", sorted(BAD_REQUESTS))
def test_bad_requests_rejected_before_scheduling(case, compute):
    server = FrameServer(num_nodes=2, micro_batch=8, seed=0)
    server.register_model("a", build_lenet(seed=0))
    server.register_model(
        "mlp", build_mlp(in_features=64, hidden=(16,), num_classes=4, seed=0)
    )
    frame = np.zeros((1, 28, 28))
    server.serve([FrameRequest(frame, "a"), FrameRequest(frame, "a")])
    before = _serving_state(server)
    bad, fragment = BAD_REQUESTS[case]
    requests = [FrameRequest(frame, "a"), FrameRequest(frame, "a"), bad]
    with pytest.raises(ValueError, match=f"request 2: .*{fragment}"):
        server.serve(requests, compute=compute)
    assert _serving_state(server) == before


def test_transport_bills_each_frame_by_its_own_geometry():
    """A conv stem's feature payload scales with the frame, so a model
    serving two frame sizes bills each delivered frame by its own shape —
    within one serve and across serves on one server."""
    model = ModelSpec("vgg16", 4).build(seed=0)
    rng = np.random.default_rng(4)
    small = [rng.uniform(0.0, 1.0, (3, 32, 32)) for _ in range(4)]
    large = [rng.uniform(0.0, 1.0, (3, 64, 64)) for _ in range(4)]

    def fresh():
        server = FrameServer(num_nodes=1, micro_batch=4, seed=0)
        server.register_model("m", model)
        return server

    def serve(server, frames):
        report = server.serve(
            [FrameRequest(frame, "m") for frame in frames],
            offered_fps=50.0,
            compute=False,
        )
        assert report.delivered == len(frames)
        return report

    one_small = serve(fresh(), small[:1])
    one_large = serve(fresh(), large[:1])
    assert (one_small.payload_bytes, one_large.payload_bytes) == (10240, 40960)

    server = fresh()
    assert serve(server, small).payload_bytes == 4 * 10240
    serve(server, large)
    again = serve(server, small)
    assert again.payload_bytes == 4 * 10240
    assert again.radio_energy_j == sum([one_small.radio_energy_j] * 4)

    mixed = serve(fresh(), small[:2] + large[:2])
    assert mixed.payload_bytes == 2 * 10240 + 2 * 40960
    assert mixed.radio_energy_j == sum(
        [one_small.radio_energy_j] * 2 + [one_large.radio_energy_j] * 2
    )


def test_dense_stem_takes_any_shape_of_the_right_length():
    server = FrameServer(num_nodes=1, micro_batch=8, seed=0)
    server.register_model(
        "mlp", build_mlp(in_features=64, hidden=(16,), num_classes=4, seed=0)
    )
    requests = [
        FrameRequest(np.zeros(64), "mlp"),
        FrameRequest(np.zeros((1, 8, 8)), "mlp"),
    ]
    report = server.serve(requests, offered_fps=100.0, compute=False)
    assert report.delivered == 2


def test_warmup_rejects_a_frame_shape_before_programming(server):
    with pytest.raises(ValueError, match="1-channel frames"):
        server.warmup(frame_shape=(3, 28, 28))
    assert server.cache.stats.misses == 0


@pytest.mark.parametrize("frame_shape", [(1, 0, 28), (1, 28, 0)])
def test_warmup_rejects_an_empty_conv_frame(server, frame_shape):
    with pytest.raises(ValueError, match="nonzero height and width"):
        server.warmup(frame_shape=frame_shape)
    assert server.cache.stats.misses == 0


def test_dense_model_serving():
    """The MLP (VOM-split) mode serves through the same engine."""
    server = FrameServer(num_nodes=1, micro_batch=8, seed=0)
    server.register_model(
        "mlp", build_mlp(in_features=64, hidden=(16,), num_classes=4, seed=0)
    )
    frames = np.random.default_rng(8).uniform(0, 1, (16, 1, 8, 8))
    report = server.serve_frames(frames, "mlp", offered_fps=500.0)
    assert report.delivered == 16
    assert report.responses[0].output.shape == (4,)
    assert report.payload_bytes > 0


def test_server_validation():
    with pytest.raises(ValueError):
        FrameServer(num_nodes=0)
    with pytest.raises(ValueError):
        FrameServer(micro_batch=0)
    server = FrameServer()
    server.register_model("a", build_lenet(seed=0))
    with pytest.raises(ValueError):
        server.serve_frames(np.zeros((2, 1, 28, 28)), "a", offered_fps=0.0)


# ----------------------------------------------------------------------
# warmup()
# ----------------------------------------------------------------------
def test_warmup_preprograms_all_models_on_all_nodes():
    server = FrameServer(num_nodes=2, micro_batch=8, seed=0)
    server.register_model("a", build_lenet(seed=0))
    server.register_model("b", build_lenet(seed=1))
    stats = server.warmup()
    assert stats["models"] == 2
    assert stats["nodes"] == 2
    # One cold program per (model, node) pair — die seeds differ.
    assert stats["cache_misses"] == 4
    assert stats["wall_clock_s"] > 0.0


def test_warmup_makes_serving_miss_free(server, frames):
    server.warmup(frame_shape=(1, 28, 28))
    requests = [
        FrameRequest(frame, "a" if i % 2 == 0 else "b")
        for i, frame in enumerate(frames)
    ]
    report = server.serve(requests, offered_fps=200.0)
    assert report.delivered == len(frames)
    assert report.cache_misses == 0


def test_warmup_is_idempotent(server):
    first = server.warmup()
    second = server.warmup()
    assert first["cache_misses"] == 2
    assert second["cache_misses"] == 0
    # Re-warming swaps each model back in through the cache.
    assert second["cache_hits"] == 2


def test_warmup_subset_and_validation(server):
    stats = server.warmup(model_keys=["a"])
    assert stats["models"] == 1
    assert stats["cache_misses"] == 1
    with pytest.raises(ValueError, match="unknown model key"):
        server.warmup(model_keys=["nope"])


def test_warmup_shape_does_not_poison_other_geometries(frames):
    """Timing tables are keyed by frame geometry, not just die.

    A warmup() traced with one shape must not answer for a stream of a
    different shape — the served stream recomputes its own tables.
    """
    warmed = FrameServer(num_nodes=1, micro_batch=8, seed=0)
    warmed.register_model("a", build_lenet(seed=0))
    warmed.warmup(frame_shape=(1, 32, 32))
    fresh = FrameServer(num_nodes=1, micro_batch=8, seed=0)
    fresh.register_model("a", build_lenet(seed=0))

    report_warmed = warmed.serve_frames(frames, "a", offered_fps=200.0)
    report_fresh = fresh.serve_frames(frames, "a", offered_fps=200.0)
    assert report_warmed.stream.mean_latency_s == report_fresh.stream.mean_latency_s
    assert report_warmed.stream.total_energy_j == report_fresh.stream.total_energy_j
