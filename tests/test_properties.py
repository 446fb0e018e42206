"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.circuits.awc import AwcCircuit, AwcDesign
from repro.core.config import OISAConfig
from repro.analysis.capacity import LENET_FIRST_LAYER
from repro.core.mapping import ConvWorkload, macs_per_cycle, plan_convolution
from repro.engine import FrameRequest, FrameServer
from repro.engine.router import RendezvousRouter
from repro.engine.workloads import ModelSpec
from repro.nn import functional as F
from repro.nn.quant import TernaryActivation, UniformWeightQuantizer, ternarize
from repro.photonics.microring import MicroringResonator
from repro.sim.stream import StreamSimulator
from repro.util.tables import format_table

finite_floats = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


# --------------------------------------------------------------------------
# Quantizers
# --------------------------------------------------------------------------
@given(
    weights=arrays(np.float64, st.integers(1, 64), elements=finite_floats),
    bits=st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_quantizer_idempotent(weights, bits):
    quantizer = UniformWeightQuantizer(bits)
    once = quantizer.quantize(weights)
    twice = quantizer.quantize(once)
    np.testing.assert_allclose(once, twice, atol=1e-9)


@given(
    weights=arrays(np.float64, st.integers(1, 64), elements=finite_floats),
    bits=st.integers(2, 4),
)
@settings(max_examples=60, deadline=None)
def test_quantizer_error_bounded(weights, bits):
    quantizer = UniformWeightQuantizer(bits)
    quantized = quantizer.quantize(weights)
    lsb = quantizer.scale(weights)
    assert np.max(np.abs(quantized - weights)) <= lsb / 2 + 1e-12


@given(
    weights=arrays(np.float64, st.integers(1, 64), elements=finite_floats),
    bits=st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_quantizer_sign_preserved(weights, bits):
    quantizer = UniformWeightQuantizer(bits)
    quantized = quantizer.quantize(weights)
    # No quantized value flips sign (zero allowed for bits >= 2).
    assert np.all(quantized * weights >= -1e-12)


@given(
    x=arrays(
        np.float64,
        st.integers(1, 64),
        elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
)
@settings(max_examples=60, deadline=None)
def test_ternarize_monotone_and_bounded(x):
    symbols = ternarize(x)
    assert symbols.min() >= 0 and symbols.max() <= 2
    order = np.argsort(x)
    assert np.all(np.diff(symbols[order]) >= 0)  # monotone in intensity


@given(
    x=arrays(
        np.float64,
        st.integers(1, 32),
        elements=st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
    )
)
@settings(max_examples=40, deadline=None)
def test_ternary_activation_ste_masks_out_of_range(x):
    act = TernaryActivation()
    act.forward(x)
    grad = act.backward(np.ones_like(x))
    outside = (x < 0.0) | (x > 1.0)
    assert np.all(grad[outside] == 0.0)


# --------------------------------------------------------------------------
# Microring
# --------------------------------------------------------------------------
@given(target=st.floats(min_value=0.01, max_value=0.999))
@settings(max_examples=60, deadline=None)
def test_microring_inversion_roundtrip(target):
    ring = MicroringResonator()
    if target < ring.min_transmission:
        target = ring.min_transmission
    shift = ring.detuning_for_transmission(target)
    assert shift >= 0.0
    recovered = float(ring.lorentzian_transmission(shift))
    assert abs(recovered - target) < 1e-9


@given(detuning=st.floats(min_value=-5e-9, max_value=5e-9, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_microring_transmission_bounded(detuning):
    ring = MicroringResonator()
    value = float(ring.lorentzian_transmission(detuning))
    assert ring.min_transmission - 1e-12 <= value <= 1.0 + 1e-12


# --------------------------------------------------------------------------
# AWC
# --------------------------------------------------------------------------
@given(bits=st.integers(1, 4), seed=st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_awc_levels_start_at_zero_and_grow(bits, seed):
    circuit = AwcCircuit(AwcDesign(num_bits=bits), seed=seed)
    levels = circuit.all_levels_a()
    assert levels[0] == 0.0
    assert levels[-1] > 0.0
    # Full scale is pinned by the MR tuning range regardless of bits.
    assert levels.max() < 1.25 * circuit.design.full_scale_current_a


@given(seed=st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_awc_inl_endpoints_zero(seed):
    circuit = AwcCircuit(seed=seed)
    inl = circuit.inl_lsb()
    assert abs(inl[0]) < 1e-9
    assert abs(inl[-1]) < 1e-9  # endpoint fit by construction


# --------------------------------------------------------------------------
# Mapping arithmetic
# --------------------------------------------------------------------------
@given(
    kernel=st.sampled_from([3, 5, 7]),
    kernels=st.integers(1, 512),
    channels=st.integers(1, 8),
    size=st.integers(16, 128),
)
@settings(max_examples=60, deadline=None)
def test_mapping_cycles_cover_workload(kernel, kernels, channels, size):
    cfg = OISAConfig()
    if size <= kernel:
        size = kernel + 1
    workload = ConvWorkload(kernel, kernels, channels, size, size)
    plan = plan_convolution(cfg, workload)
    # Enough cycles to cover all planes: resident planes per round x rounds
    # must reach the total plane count.
    assert plan.kernel_slots * plan.mapping_rounds >= kernels * channels
    assert plan.compute_cycles == workload.windows_per_channel * plan.mapping_rounds
    assert 0.0 < plan.mr_utilization <= 1.0


@given(kernel=st.sampled_from([3, 5, 7]))
@settings(max_examples=10, deadline=None)
def test_macs_per_cycle_formula(kernel):
    cfg = OISAConfig()
    n = 5 if kernel == 3 else 1
    assert macs_per_cycle(cfg, kernel) == cfg.num_banks * n * kernel**2


# --------------------------------------------------------------------------
# im2col
# --------------------------------------------------------------------------
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 3),
    size=st.integers(4, 9),
    stride=st.integers(1, 2),
    padding=st.integers(0, 2),
)
@settings(max_examples=40, deadline=None)
def test_im2col_adjoint_property(n, c, size, stride, padding):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(n, c, size, size))
    cols = F.im2col(x, 3, 3, stride, padding)
    y = rng.normal(size=cols.shape)
    lhs = float((cols * y).sum())
    rhs = float((x * F.col2im(y, x.shape, 3, 3, stride, padding)).sum())
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


# --------------------------------------------------------------------------
# Tables
# --------------------------------------------------------------------------
@given(
    rows=st.lists(
        st.tuples(st.integers(-1000, 1000), finite_floats), min_size=1, max_size=10
    )
)
@settings(max_examples=40, deadline=None)
def test_format_table_alignment_property(rows):
    text = format_table(("a", "b"), rows)
    lines = text.splitlines()
    widths = {len(line) for line in lines}
    assert len(widths) == 1  # every line equally wide


# --------------------------------------------------------------------------
# Tenant routing (control plane)
# --------------------------------------------------------------------------
class _FakeShard:
    """Minimal :class:`repro.engine.router.ShardView` for router tests."""

    def __init__(self, name, hosted=(), nodes=1):
        self.name = name
        self.hosted = set(hosted)
        self.nodes = nodes  # routers must never read this

    def hosts(self, model_key):
        return model_key in self.hosted


_names = st.lists(
    st.text(alphabet="abcdefgh0123", min_size=1, max_size=6),
    min_size=1,
    max_size=6,
    unique=True,
)
_tenants = st.lists(
    st.text(alphabet="tuvwxyz0123456789:", min_size=1, max_size=10),
    min_size=1,
    max_size=12,
    unique=True,
)


@given(
    names=_names,
    tenants=_tenants,
    salt=st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_routing_total_and_deterministic(names, tenants, salt):
    """Every admitted (tenant, model) pair lands on exactly one shard,
    and two independently built routers with the same salt agree."""
    shards = [_FakeShard(name) for name in names]
    first = RendezvousRouter(salt=salt)
    second = RendezvousRouter(salt=salt)
    for tenant in tenants:
        target = first.route(tenant, "m", shards)
        assert target in shards  # exactly one, drawn from the fleet
        assert second.route(tenant, "m", shards) is target


@given(
    names=_names,
    tenants=_tenants,
    salt=st.integers(0, 2**32),
    counts=st.lists(st.integers(1, 16), min_size=6, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_rendezvous_stable_under_node_count_changes(
    names, tenants, salt, counts
):
    """Autoscaler breathing (node counts) never moves a tenant."""
    shards = [_FakeShard(name) for name in names]
    router = RendezvousRouter(salt=salt)
    before = {t: router.route(t, "m", shards).name for t in tenants}
    for shard, count in zip(shards, counts):
        shard.nodes = count
    after = {t: router.route(t, "m", shards).name for t in tenants}
    assert before == after


@given(names=_names, tenants=_tenants, salt=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_rendezvous_removal_churn_is_bounded(names, tenants, salt):
    """Dropping one shard moves only the tenants that were on it."""
    shards = [_FakeShard(name) for name in names]
    router = RendezvousRouter(salt=salt)
    before = {t: router.route(t, "m", shards).name for t in tenants}
    removed = shards[0]
    survivors = shards[1:]
    if not survivors:
        return
    for tenant in tenants:
        after = router.route(tenant, "m", survivors).name
        if before[tenant] != removed.name:
            assert after == before[tenant]


@given(names=_names, tenants=_tenants, salt=st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_rendezvous_addition_churn_is_bounded(names, tenants, salt):
    """Adding one shard only ever pulls tenants *onto* the newcomer."""
    shards = [_FakeShard(name) for name in names]
    router = RendezvousRouter(salt=salt)
    before = {t: router.route(t, "m", shards).name for t in tenants}
    newcomer = _FakeShard("zz-new")
    grown = shards + [newcomer]
    for tenant in tenants:
        after = router.route(tenant, "m", grown).name
        if after != before[tenant]:
            assert after == newcomer.name


@given(
    names=_names,
    tenants=_tenants,
    salt=st.integers(0, 2**32),
    hosting=st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_routing_lands_on_a_hosting_shard_when_one_exists(
    names, tenants, salt, hosting
):
    """A model hosted somewhere routes only onto its hosts, by the same
    scores as a fleet of just those hosts."""
    shards = [
        _FakeShard(name, hosted=("m",) if index < hosting else ())
        for index, name in enumerate(names)
    ]
    hosts = [shard for shard in shards if shard.hosts("m")]
    router = RendezvousRouter(salt=salt)
    for tenant in tenants:
        assert router.route(tenant, "m", shards) is router.route(
            tenant, "m", hosts
        )


# --------------------------------------------------------------------------
# Greedy scheduling vs its origin (sim/stream.StreamSimulator)
# --------------------------------------------------------------------------
@given(
    frames=st.integers(1, 249),
    fps=st.floats(32.0, 316_000.0),
    die_seed=st.integers(0, 49),
)
@settings(max_examples=40, deadline=None)
def test_greedy_serve_matches_the_stream_simulator(frames, fps, die_seed):
    """A 1-node greedy serve of one LeNet's uniform stream admits, times
    and drops every frame as the single-node stream simulation does: one
    remap, on the first frame, at the die's programmed tuning latency.

    Energy is left out: the simulation prices the remap from the energy
    model's default mapping energy, the server from the die's tuning
    budget.
    """
    server = FrameServer(num_nodes=1, seed=die_seed, policy="greedy")
    server.register_model("lenet-4b", ModelSpec("lenet", 4).build(seed=0))
    frame = np.zeros((1, 28, 28))
    report = server.serve(
        [FrameRequest(frame, "lenet-4b") for _ in range(frames)],
        offered_fps=fps,
        compute=False,
    )
    tuning_s = server.nodes[0].opc.programmed.tuning.latency_s
    expected = StreamSimulator(OISAConfig()).run(
        LENET_FIRST_LAYER,
        frames,
        fps,
        remap_every=frames + 1,
        tuning_latency_s=tuning_s,
    )
    assert [tuple(event) for event in report.stream.events] == [
        tuple(event) for event in expected.events
    ]
    assert report.stream.dropped == expected.dropped
