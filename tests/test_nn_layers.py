"""Tests for repro.nn.layers — gradient checks for every layer."""

import numpy as np
import pytest

from repro.nn.layers import (
    AvgPool2D,
    BatchNorm2D,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool2D,
    MaxPool2D,
    Parameter,
    ReLU,
    Residual,
    Sequential,
)


def _layer_grad_check(layer, x, training=True, atol=1e-5):
    """Check input and parameter gradients against central differences."""
    rng = np.random.default_rng(99)
    out = layer.forward(x, training=training)
    grad_out = rng.normal(size=out.shape)
    layer.zero_grad()
    grad_x = layer.backward(grad_out)

    def loss():
        return float((layer.forward(x, training=training) * grad_out).sum())

    eps = 1e-6
    # Input gradient at a few positions.
    flat_x = x.reshape(-1)
    for index in np.linspace(0, flat_x.size - 1, 3, dtype=int):
        flat_x[index] += eps
        plus = loss()
        flat_x[index] -= 2 * eps
        minus = loss()
        flat_x[index] += eps
        numeric = (plus - minus) / (2 * eps)
        assert grad_x.reshape(-1)[index] == pytest.approx(numeric, abs=atol)

    # Parameter gradients (recompute state after the input pokes).
    layer.zero_grad()
    layer.forward(x, training=training)
    layer.backward(grad_out)
    for parameter in layer.parameters():
        flat_p = parameter.data.reshape(-1)
        index = flat_p.size // 2
        analytic = parameter.grad.reshape(-1)[index]
        flat_p[index] += eps
        plus = loss()
        flat_p[index] -= 2 * eps
        minus = loss()
        flat_p[index] += eps
        numeric = (plus - minus) / (2 * eps)
        assert analytic == pytest.approx(numeric, abs=atol), parameter.name


def test_parameter_zero_grad():
    p = Parameter(np.ones((2, 2)))
    p.grad += 3.0
    p.zero_grad()
    np.testing.assert_array_equal(p.grad, 0.0)
    assert p.size == 4


def test_conv2d_gradients():
    rng = np.random.default_rng(0)
    layer = Conv2D(2, 3, 3, stride=1, padding=1, seed=0)
    _layer_grad_check(layer, rng.normal(size=(2, 2, 5, 5)))


def test_conv2d_strided_gradients():
    rng = np.random.default_rng(1)
    layer = Conv2D(2, 4, 3, stride=2, padding=1, seed=1)
    _layer_grad_check(layer, rng.normal(size=(2, 2, 8, 8)))


def test_dense_gradients():
    rng = np.random.default_rng(2)
    layer = Dense(6, 4, seed=2)
    _layer_grad_check(layer, rng.normal(size=(3, 6)))


def test_relu_gradients():
    rng = np.random.default_rng(3)
    _layer_grad_check(ReLU(), rng.normal(size=(4, 5)) + 0.3)


def test_batchnorm_training_gradients():
    rng = np.random.default_rng(4)
    layer = BatchNorm2D(3)
    _layer_grad_check(layer, rng.normal(size=(4, 3, 4, 4)), training=True, atol=1e-4)


def test_batchnorm_normalises_in_training():
    rng = np.random.default_rng(5)
    layer = BatchNorm2D(2)
    x = rng.normal(loc=3.0, scale=2.0, size=(16, 2, 8, 8))
    out = layer.forward(x, training=True)
    assert out.mean(axis=(0, 2, 3)) == pytest.approx(np.zeros(2), abs=1e-10)
    assert out.std(axis=(0, 2, 3)) == pytest.approx(np.ones(2), rel=1e-3)


def test_batchnorm_running_stats_used_in_eval():
    rng = np.random.default_rng(6)
    layer = BatchNorm2D(2, momentum=1.0)  # adopt batch stats immediately
    x = rng.normal(loc=1.0, size=(8, 2, 4, 4))
    layer.forward(x, training=True)
    out = layer.forward(x, training=False)
    assert out.mean() == pytest.approx(0.0, abs=0.05)


def test_maxpool_layer_gradients():
    rng = np.random.default_rng(7)
    _layer_grad_check(MaxPool2D(2), rng.normal(size=(2, 2, 6, 6)))


def test_avgpool_layer_gradients():
    rng = np.random.default_rng(8)
    _layer_grad_check(AvgPool2D(2), rng.normal(size=(2, 2, 6, 6)))


@pytest.mark.parametrize("pool_cls", [MaxPool2D, AvgPool2D])
@pytest.mark.parametrize("stride", [0, -1])
def test_pool_rejects_non_positive_stride(pool_cls, stride):
    with pytest.raises(ValueError, match="stride"):
        pool_cls(2, stride=stride)


@pytest.mark.parametrize("pool_cls", [MaxPool2D, AvgPool2D])
def test_pool_stride_defaults_to_pool(pool_cls):
    layer = pool_cls(3)
    assert (layer.pool, layer.stride) == (3, 3)
    assert pool_cls(3, stride=1).stride == 1


def test_global_avgpool_gradients():
    rng = np.random.default_rng(9)
    _layer_grad_check(GlobalAvgPool2D(), rng.normal(size=(3, 4, 5, 5)))


def test_flatten_roundtrip():
    rng = np.random.default_rng(10)
    layer = Flatten()
    x = rng.normal(size=(2, 3, 4, 4))
    out = layer.forward(x)
    assert out.shape == (2, 48)
    grad = layer.backward(np.ones_like(out))
    assert grad.shape == x.shape


def test_sequential_gradients():
    rng = np.random.default_rng(11)
    model = Sequential(
        [Conv2D(1, 2, 3, padding=1, seed=3), ReLU(), Flatten(), Dense(2 * 16, 3, seed=4)]
    )
    _layer_grad_check(model, rng.normal(size=(2, 1, 4, 4)))


def test_residual_identity_gradients():
    rng = np.random.default_rng(12)
    block = Residual(
        Sequential([Conv2D(2, 2, 3, padding=1, use_bias=False, seed=5), BatchNorm2D(2)])
    )
    _layer_grad_check(block, rng.normal(size=(2, 2, 4, 4)), atol=1e-4)


def test_residual_projection_gradients():
    rng = np.random.default_rng(13)
    block = Residual(
        Sequential([Conv2D(2, 4, 3, stride=2, padding=1, use_bias=False, seed=6), BatchNorm2D(4)]),
        shortcut=Sequential([Conv2D(2, 4, 1, stride=2, use_bias=False, seed=7), BatchNorm2D(4)]),
    )
    _layer_grad_check(block, rng.normal(size=(2, 2, 4, 4)), atol=1e-4)


def test_residual_shape_mismatch_raises():
    block = Residual(Conv2D(2, 4, 3, padding=1, seed=8))
    with pytest.raises(ValueError):
        block.forward(np.zeros((1, 2, 4, 4)))


def test_backward_before_forward_raises():
    for layer in (Conv2D(1, 1, 3), Dense(2, 2), ReLU(), BatchNorm2D(1), MaxPool2D()):
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 1)))


def test_num_parameters():
    model = Sequential([Conv2D(1, 2, 3, use_bias=True), Dense(4, 3)])
    # conv: 2*1*3*3 + 2 = 20; dense: 3*4 + 3 = 15.
    assert model.num_parameters() == 35
