"""Tests for repro.nn.functional — conv/pool kernels against references."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import Conv2D, MaxPool2D, Sequential
from repro.nn.models import TernaryInputLayer
from repro.nn.quant import ternarize


def _naive_conv2d(x, w, b, stride, padding):
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    x = F.pad_nchw(x, padding)
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, f, oh, ow))
    for ni in range(n):
        for fi in range(f):
            for oy in range(oh):
                for ox in range(ow):
                    patch = x[ni, :, oy * stride : oy * stride + kh, ox * stride : ox * stride + kw]
                    out[ni, fi, oy, ox] = (patch * w[fi]).sum()
            if b is not None:
                out[ni, fi] += b[fi]
    return out


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_conv2d_matches_naive(stride, padding):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 3, 7, 7))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    out, _ = F.conv2d_forward(x, w, b, stride, padding)
    expected = _naive_conv2d(x, w, b, stride, padding)
    np.testing.assert_allclose(out, expected, atol=1e-10)


def test_conv_output_size():
    assert F.conv_output_size(32, 3, 1, 1) == 32
    assert F.conv_output_size(32, 3, 2, 1) == 16
    assert F.conv_output_size(28, 5, 1, 2) == 28
    with pytest.raises(ValueError):
        F.conv_output_size(2, 5, 1, 0)


def test_im2col_col2im_adjoint():
    # <im2col(x), y> == <x, col2im(y)> — the defining adjoint identity.
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 6, 6))
    cols = F.im2col(x, 3, 3, 2, 1)
    y = rng.normal(size=cols.shape)
    lhs = float((cols * y).sum())
    x_back = F.col2im(y, x.shape, 3, 3, 2, 1)
    rhs = float((x * x_back).sum())
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_conv2d_backward_finite_difference():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 2, 5, 5))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    out, cols = F.conv2d_forward(x, w, b, 1, 1)
    grad_out = rng.normal(size=out.shape)
    grad_x, grad_w, grad_b = F.conv2d_backward(
        grad_out, cols, x.shape, w, 1, 1, with_bias=True
    )

    def loss(x_, w_, b_):
        out_, _ = F.conv2d_forward(x_, w_, b_, 1, 1)
        return float((out_ * grad_out).sum())

    eps = 1e-6
    for array, grad, name in ((x, grad_x, "x"), (w, grad_w, "w"), (b, grad_b, "b")):
        flat = array.reshape(-1)
        index = 3 % flat.size
        flat[index] += eps
        plus = loss(x, w, b)
        flat[index] -= 2 * eps
        minus = loss(x, w, b)
        flat[index] += eps
        numeric = (plus - minus) / (2 * eps)
        assert grad.reshape(-1)[index] == pytest.approx(numeric, rel=1e-5), name


def test_maxpool_forward_and_routing():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    out, arg = F.maxpool2d_forward(x, 2, 2)
    assert out[0, 0, 0, 0] == 4.0
    grad = F.maxpool2d_backward(np.ones_like(out), arg, x.shape, 2, 2)
    expected = np.array([[[[0.0, 0.0], [0.0, 1.0]]]])
    np.testing.assert_array_equal(grad, expected)


def test_maxpool_finite_difference():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 2, 6, 6))
    out, arg = F.maxpool2d_forward(x, 2, 2)
    grad_out = rng.normal(size=out.shape)
    grad_x = F.maxpool2d_backward(grad_out, arg, x.shape, 2, 2)
    eps = 1e-6
    index = (0, 1, 2, 3)
    x[index] += eps
    plus = float((F.maxpool2d_forward(x, 2, 2)[0] * grad_out).sum())
    x[index] -= 2 * eps
    minus = float((F.maxpool2d_forward(x, 2, 2)[0] * grad_out).sum())
    x[index] += eps
    assert grad_x[index] == pytest.approx((plus - minus) / (2 * eps), abs=1e-5)


def test_avgpool_roundtrip():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 2, 4, 4))
    out = F.avgpool2d_forward(x, 2, 2)
    assert out.shape == (1, 2, 2, 2)
    assert out[0, 0, 0, 0] == pytest.approx(x[0, 0, :2, :2].mean())
    grad = F.avgpool2d_backward(np.ones_like(out), x.shape, 2, 2)
    np.testing.assert_allclose(grad, 0.25)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(8, 10)) * 50  # large values: stability test
    probs = F.softmax(logits)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs >= 0.0)


# --------------------------------------------------------------------------
# Byte-equality oracles: the earlier formulations of the kernels, kept here
# as references.  Served logits and the goldens depend on every bit and on
# the output strides (later reductions sum in memory order), so the live
# kernels must match these exactly, not within a tolerance.
# --------------------------------------------------------------------------
def _ref_pad(x, padding):
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def _ref_im2col(x, kernel_h, kernel_w, stride, padding):
    n, c, h, w = x.shape
    out_h = F.conv_output_size(h, kernel_h, stride, padding)
    out_w = F.conv_output_size(w, kernel_w, stride, padding)
    windows = np.lib.stride_tricks.sliding_window_view(
        _ref_pad(x, padding), (kernel_h, kernel_w), axis=(2, 3)
    )[:, :, ::stride, ::stride, :, :]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(
        n, c * kernel_h * kernel_w, out_h * out_w
    )
    return np.ascontiguousarray(cols)


def _ref_conv2d(x, weight, bias, stride, padding):
    n = x.shape[0]
    f, _, kernel_h, kernel_w = weight.shape
    out_h = F.conv_output_size(x.shape[2], kernel_h, stride, padding)
    out_w = F.conv_output_size(x.shape[3], kernel_w, stride, padding)
    cols = _ref_im2col(x, kernel_h, kernel_w, stride, padding)
    out = np.einsum("fk,nkp->nfp", weight.reshape(f, -1), cols, optimize=True)
    if bias is not None:
        out += bias[None, :, None]
    return out.reshape(n, f, out_h, out_w), cols


def _ref_maxpool(x, pool, stride):
    n, c, h, w = x.shape
    out_h = F.conv_output_size(h, pool, stride, 0)
    out_w = F.conv_output_size(w, pool, stride, 0)
    windows = np.lib.stride_tricks.sliding_window_view(x, (pool, pool), axis=(2, 3))
    flat = windows[:, :, ::stride, ::stride, :, :].reshape(n, c, out_h, out_w, -1)
    arg = flat.argmax(axis=-1)
    return np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0], arg


def _ref_ste_mask(x):
    return (x >= 0.0) & (x <= 1.0)


def _assert_same_bytes(actual, expected, strides=True):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    if strides:
        assert actual.strides == expected.strides
    assert actual.tobytes() == expected.tobytes()


def _with_signed_zeros(rng, shape):
    """Normal draws with about a fifth of the entries set to -0.0 or +0.0."""
    x = rng.normal(size=shape)
    draw = rng.random(shape)
    x[draw < 0.1] = -0.0
    x[(draw >= 0.1) & (draw < 0.2)] = 0.0
    return x


#: (N, C, H, W, F, kernel, stride, padding).  Every row holds signed zeros
#: in both operands; the last two rows contract over C*KH*KW = 1, where the
#: product is not a GEMM and -0.0 inputs read +0.0.
CONV_CASES = [
    (1, 1, 28, 28, 6, 5, 1, 2),  # a LeNet first conv, batch 1
    (8, 6, 14, 14, 16, 5, 1, 2),  # a LeNet second conv, batch 8
    (1, 3, 9, 8, 1, 3, 2, 1),  # F = 1, stride 2
    (3, 2, 11, 7, 4, 3, 2, 0),  # N > 1, stride 2, odd sizes
    (3, 2, 3, 3, 4, 3, 1, 0),  # 1x1 output, N > 1
    (1, 2, 1, 1, 5, 3, 1, 1),  # 1x1 output, N = 1, via padding
    (2, 1, 5, 5, 4, 1, 1, 0),  # C*KH*KW = 1
    (1, 1, 4, 6, 3, 1, 2, 2),  # C*KH*KW = 1, N = 1, stride 2, padding 2
]


@pytest.mark.parametrize("n,c,h,w,f,kernel,stride,padding", CONV_CASES)
def test_kernels_match_reference_formulations(n, c, h, w, f, kernel, stride, padding):
    rng = np.random.default_rng(n * 1000 + c * 100 + f)
    x = _with_signed_zeros(rng, (n, c, h, w))
    weight = _with_signed_zeros(rng, (f, c, kernel, kernel))
    bias = rng.normal(size=f)
    _assert_same_bytes(F.pad_nchw(x, padding), _ref_pad(x, padding))
    _assert_same_bytes(
        F.im2col(x, kernel, kernel, stride, padding),
        _ref_im2col(x, kernel, kernel, stride, padding),
    )
    for b in (None, bias):
        out, cols = F.conv2d_forward(x, weight, b, stride, padding)
        ref_out, ref_cols = _ref_conv2d(x, weight, b, stride, padding)
        _assert_same_bytes(out, ref_out)
        _assert_same_bytes(cols, ref_cols)


def test_conv2d_matches_einsum_on_random_shapes():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n, c = int(rng.integers(1, 9)), int(rng.integers(1, 5))
        f = int(rng.integers(1, 65))
        kernel_h, kernel_w = (int(k) for k in rng.choice([1, 2, 3, 5], size=2))
        if rng.random() < 0.1:
            c, kernel_h, kernel_w = 1, 1, 1
        stride, padding = int(rng.integers(1, 3)), int(rng.integers(0, 3))
        h = max(kernel_h - 2 * padding, 1) + int(rng.integers(0, 10))
        w = max(kernel_w - 2 * padding, 1) + int(rng.integers(0, 10))
        x = _with_signed_zeros(rng, (n, c, h, w))
        weight = _with_signed_zeros(rng, (f, c, kernel_h, kernel_w))
        bias = rng.normal(size=f) if rng.random() < 0.5 else None
        out, cols = F.conv2d_forward(x, weight, bias, stride, padding)
        ref_out, ref_cols = _ref_conv2d(x, weight, bias, stride, padding)
        _assert_same_bytes(out, ref_out)
        _assert_same_bytes(cols, ref_cols)


@pytest.mark.parametrize(
    "shape,pool,stride",
    [
        ((2, 3, 6, 6), 2, 2),
        ((1, 2, 7, 5), 2, 2),  # odd sizes: the last row and column drop out
        ((2, 1, 9, 9), 3, 2),  # overlapping windows
        ((1, 2, 5, 6), 2, 1),  # overlapping windows, stride 1
        ((3, 1, 4, 4), 4, 1),  # one window per map
        ((1, 1, 3, 3), 1, 1),  # identity
    ],
)
def test_maxpool_matches_argmax_formulation(shape, pool, stride):
    rng = np.random.default_rng(sum(shape) + pool)
    plain = rng.normal(size=shape)
    # Non-positive maps whose window maxima are mostly ±0 ties, with NaNs.
    ties = -np.abs(_with_signed_zeros(rng, shape))
    draw = rng.random(shape)
    ties[draw < 0.3] = -0.0
    ties[(draw >= 0.3) & (draw < 0.6)] = 0.0
    ties[draw > 0.95] = np.nan
    for x in (plain, ties):
        _assert_same_bytes(F.maxpool2d(x, pool, stride), _ref_maxpool(x, pool, stride)[0])


def test_maxpool_tie_keeps_the_earliest_zero():
    x = np.array([[[[-0.0, 0.0], [0.0, -0.0]]], [[[0.0, -0.0], [-0.0, -0.0]]]])
    out = F.maxpool2d(x, 2, 2)
    assert np.signbit(out[:, 0, 0, 0]).tolist() == [True, False]
    assert np.signbit(_ref_maxpool(x, 2, 2)[0][:, 0, 0, 0]).tolist() == [True, False]


@pytest.mark.parametrize("training", [True, False])
def test_layer_gradients_match_reference_formulations(training):
    """Conv2D, MaxPool2D and the STE activation backpropagate the same bits.

    ``backward`` derives the pool argmax and the STE mask from the cached
    input, so it must also work after a default (inference) forward.
    """
    rng = np.random.default_rng(31)
    x = rng.uniform(-0.25, 1.25, size=(3, 2, 9, 9))
    x[0, 0, 0, :3] = [0.0, 1.0, -0.0]  # the clip range is closed
    conv = Conv2D(2, 5, 3, stride=1, padding=1, seed=4)
    model = Sequential([TernaryInputLayer(), conv, MaxPool2D(3, stride=2)])
    out = model.forward(x, training=training)
    grad_out = rng.normal(size=out.shape)
    model.zero_grad()
    grad_x = model.backward(grad_out)

    symbols = ternarize(x).astype(float) / 2.0
    conv_out, cols = _ref_conv2d(symbols, conv.weight.data, conv.bias.data, 1, 1)
    pooled, arg = _ref_maxpool(conv_out, 3, 2)
    _assert_same_bytes(out, pooled)
    grad_conv = F.maxpool2d_backward(grad_out, arg, conv_out.shape, 3, 2)
    grad_symbols, grad_w, grad_b = F.conv2d_backward(
        grad_conv, cols, symbols.shape, conv.weight.data, 1, 1, with_bias=True
    )
    ref_grad_x = np.where(_ref_ste_mask(x), grad_symbols, 0.0)
    _assert_same_bytes(grad_x, ref_grad_x)
    # Parameter gradients accumulate into their own C-ordered buffers.
    _assert_same_bytes(conv.weight.grad, grad_w, strides=False)
    _assert_same_bytes(conv.bias.grad, grad_b, strides=False)
