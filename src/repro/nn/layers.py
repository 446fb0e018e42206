"""Layer zoo with explicit forward/backward passes.

Every layer implements::

    y = layer.forward(x, training=...)
    grad_x = layer.backward(grad_y)

``backward`` must be called after the matching ``forward`` (layers cache
what they need).  Parameters are :class:`Parameter` objects exposing
``data``/``grad`` arrays that optimizers update in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn import functional as F
from repro.util.rng import derive_rng


@dataclass
class Parameter:
    """A trainable tensor with its accumulated gradient."""

    data: np.ndarray
    grad: np.ndarray = field(init=False)
    name: str = ""

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero."""
        self.grad.fill(0.0)

    @property
    def size(self) -> int:
        """Number of scalar elements."""
        return int(self.data.size)


class Layer:
    """Base layer: parameter-free identity by default."""

    def parameters(self) -> list[Parameter]:
        """Trainable parameters of this layer (possibly empty)."""
        return []

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Zero every parameter gradient."""
        for parameter in self.parameters():
            parameter.zero_grad()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(parameter.size for parameter in self.parameters())


def _he_init(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)


class Conv2D(Layer):
    """2D convolution (NCHW) backed by im2col."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        use_bias: bool = True,
        seed: int | None = None,
    ) -> None:
        if min(in_channels, out_channels, kernel_size, stride) < 1:
            raise ValueError("conv dimensions must be positive")
        if padding < 0:
            raise ValueError(f"padding must be non-negative, got {padding}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        rng = derive_rng(seed, f"conv-{in_channels}-{out_channels}-{kernel_size}")
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            _he_init((out_channels, in_channels, kernel_size, kernel_size), fan_in, rng),
            name="conv.weight",
        )
        self.bias = Parameter(np.zeros(out_channels), name="conv.bias") if use_bias else None
        self._cache: tuple | None = None

    def parameters(self) -> list[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def effective_weight(self) -> np.ndarray:
        """Weight used in the forward pass; hook point for quantization."""
        return self.weight.data

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        weight = self.effective_weight()
        bias = self.bias.data if self.bias is not None else None
        out, cols = F.conv2d_forward(x, weight, bias, self.stride, self.padding)
        self._cache = (x.shape, cols, weight)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_shape, cols, weight = self._cache
        grad_x, grad_w, grad_b = F.conv2d_backward(
            grad_out, cols, x_shape, weight, self.stride, self.padding,
            with_bias=self.bias is not None,
        )
        self.weight.grad += self.apply_weight_grad_transform(grad_w)
        if self.bias is not None and grad_b is not None:
            self.bias.grad += grad_b
        return grad_x

    def apply_weight_grad_transform(self, grad_w: np.ndarray) -> np.ndarray:
        """Hook for quantizers (straight-through estimators)."""
        return grad_w


class Dense(Layer):
    """Fully-connected layer ``y = x W^T + b`` on (N, D) inputs."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        use_bias: bool = True,
        seed: int | None = None,
    ) -> None:
        if min(in_features, out_features) < 1:
            raise ValueError("dense dimensions must be positive")
        rng = derive_rng(seed, f"dense-{in_features}-{out_features}")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            _he_init((out_features, in_features), in_features, rng), name="dense.weight"
        )
        self.bias = Parameter(np.zeros(out_features), name="dense.bias") if use_bias else None
        self._x: np.ndarray | None = None

    def parameters(self) -> list[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x
        out = x @ self.weight.data.T
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        self.weight.grad += grad_out.T @ self._x
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.data


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        return np.where(self._mask, grad_out, 0.0)


class BatchNorm2D(Layer):
    """Batch normalisation over (N, H, W) per channel with running stats."""

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        if channels < 1:
            raise ValueError(f"channels must be positive, got {channels}")
        if not (0.0 < momentum <= 1.0):
            raise ValueError(f"momentum must be in (0, 1], got {momentum}")
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(channels), name="bn.gamma")
        self.beta = Parameter(np.zeros(channels), name="bn.beta")
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache: tuple | None = None

    def parameters(self) -> list[Parameter]:
        return [self.gamma, self.beta]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            )
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        self._cache = (x_hat, inv_std, training, x.shape)
        return (
            self.gamma.data[None, :, None, None] * x_hat
            + self.beta.data[None, :, None, None]
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std, training, shape = self._cache
        n, _, h, w = shape
        m = n * h * w
        self.gamma.grad += (grad_out * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += grad_out.sum(axis=(0, 2, 3))
        gamma = self.gamma.data[None, :, None, None]
        if not training:
            return grad_out * gamma * inv_std[None, :, None, None]
        grad_xhat = grad_out * gamma
        sum_grad = grad_xhat.sum(axis=(0, 2, 3), keepdims=True)
        sum_grad_xhat = (grad_xhat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        return (
            inv_std[None, :, None, None]
            * (grad_xhat - sum_grad / m - x_hat * sum_grad_xhat / m)
        )


def _pool_stride(pool: int, stride: int | None) -> int:
    """The validated stride of a square pool; it defaults to the pool size."""
    if pool < 1:
        raise ValueError(f"pool must be positive, got {pool}")
    if stride is None:
        return pool
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    return stride


class MaxPool2D(Layer):
    """Max pooling with square window.

    ``forward`` keeps a reference to its input and computes no argmax;
    ``backward`` derives the argmax from that cached input, so the caller
    must not mutate the input in between.
    """

    def __init__(self, pool: int = 2, stride: int | None = None) -> None:
        self.stride = _pool_stride(pool, stride)
        self.pool = pool
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x
        return F.maxpool2d(x, self.pool, self.stride)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        _, arg = F.maxpool2d_forward(self._x, self.pool, self.stride)
        return F.maxpool2d_backward(
            grad_out, arg, self._x.shape, self.pool, self.stride
        )


class AvgPool2D(Layer):
    """Average pooling with square window."""

    def __init__(self, pool: int = 2, stride: int | None = None) -> None:
        self.stride = _pool_stride(pool, stride)
        self.pool = pool
        self._x_shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x_shape = x.shape
        return F.avgpool2d_forward(x, self.pool, self.stride)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        return F.avgpool2d_backward(grad_out, self._x_shape, self.pool, self.stride)


class GlobalAvgPool2D(Layer):
    """Global average pooling: (N, C, H, W) -> (N, C)."""

    def __init__(self) -> None:
        self._x_shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._x_shape
        return np.broadcast_to(
            grad_out[:, :, None, None] / (h * w), self._x_shape
        ).copy()


class Flatten(Layer):
    """Flatten all axes after the batch axis."""

    def __init__(self) -> None:
        self._x_shape: tuple | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._x_shape)


class Sequential(Layer):
    """Chain of layers applied in order."""

    def __init__(self, layers: list[Layer]) -> None:
        self.layers = list(layers)

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Layer:
        return self.layers[index]


class Residual(Layer):
    """Residual connection: ``y = main(x) + shortcut(x)``.

    ``shortcut`` defaults to identity; pass a projection (1x1 conv + BN)
    when shapes change, as in ResNet downsampling blocks.
    """

    def __init__(self, main: Layer, shortcut: Layer | None = None) -> None:
        self.main = main
        self.shortcut = shortcut

    def parameters(self) -> list[Parameter]:
        params = list(self.main.parameters())
        if self.shortcut is not None:
            params.extend(self.shortcut.parameters())
        return params

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        main_out = self.main.forward(x, training=training)
        skip_out = (
            self.shortcut.forward(x, training=training)
            if self.shortcut is not None
            else x
        )
        if main_out.shape != skip_out.shape:
            raise ValueError(
                f"residual shape mismatch: main {main_out.shape} vs "
                f"shortcut {skip_out.shape}"
            )
        return main_out + skip_out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_main = self.main.backward(grad_out)
        if self.shortcut is not None:
            grad_skip = self.shortcut.backward(grad_out)
        else:
            grad_skip = grad_out
        return grad_main + grad_skip
