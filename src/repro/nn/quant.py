"""Quantizers for OISA's low-bit-width first layer.

The paper trains networks whose first convolution sees **ternary (2-bit)
activations** (the VAM's {0, 1, 2} symbols) and **1-to-4-bit weights** (the
AWC's current levels).  Training uses the straight-through estimator (STE):
quantize in the forward pass, pass gradients through (with saturation
clipping) in the backward pass.

* :class:`UniformWeightQuantizer` — sign-magnitude uniform quantizer
  matching the OPC's differential rails: an ``n``-bit weight is an
  ``n``-bit *magnitude* (the AWC's ``2^n`` current levels) with the sign
  selecting the positive or negative waveguide, so the integer range is
  ``[-(2^b - 1), +(2^b - 1)]``.  ``bits == 1`` degenerates to binary
  {-1, +1} * scale, matching the paper's "[1:2]" configuration (BNN-style
  first layer).
* :class:`TernaryActivation` — maps normalised pixel intensities through
  the two VAM thresholds onto {0, 1/2, 1} (i.e. symbols {0, 1, 2} scaled to
  unit range).
* :class:`QuantConv2D` — a :class:`~repro.nn.layers.Conv2D` whose forward
  weights are fake-quantized; the float master copy receives STE gradients.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Conv2D, Dense
from repro.util.validation import check_in_range


class UniformWeightQuantizer:
    """Symmetric uniform fake-quantizer with per-tensor scaling."""

    def __init__(self, bits: int) -> None:
        check_in_range("bits", bits, 1, 8)
        self.bits = int(bits)

    @property
    def num_positive_levels(self) -> int:
        """Number of strictly-positive integer levels (2^bits - 1)."""
        if self.bits == 1:
            return 1
        return (1 << self.bits) - 1

    def scale(self, weights: np.ndarray) -> float:
        """Per-tensor scale: max |w| mapped to the top integer level."""
        max_abs = float(np.max(np.abs(weights))) if weights.size else 0.0
        if max_abs == 0.0:
            return 1.0
        return max_abs / self.num_positive_levels

    def quantize_int(self, weights: np.ndarray) -> tuple[np.ndarray, float]:
        """Return (integer codes, scale); ``w ~ codes * scale``."""
        weights = np.asarray(weights, dtype=float)
        scale = self.scale(weights)
        if self.bits == 1:
            codes = np.where(weights >= 0.0, 1, -1)
            return codes.astype(np.int64), scale
        top = self.num_positive_levels
        codes = np.clip(np.round(weights / scale), -top, top)
        return codes.astype(np.int64), scale

    def quantize(self, weights: np.ndarray) -> np.ndarray:
        """Fake-quantize: float weights snapped onto the integer grid."""
        codes, scale = self.quantize_int(weights)
        return codes.astype(float) * scale

    def ste_grad_mask(self, weights: np.ndarray) -> np.ndarray:
        """STE clipping mask: gradients vanish outside the representable range."""
        weights = np.asarray(weights, dtype=float)
        limit = self.num_positive_levels * self.scale(weights)
        return (np.abs(weights) <= limit).astype(float)


def ternarize(
    intensities: np.ndarray,
    low_threshold: float = 1.0 / 3.0,
    high_threshold: float = 2.0 / 3.0,
) -> np.ndarray:
    """Map unit-range intensities onto ternary symbols {0, 1, 2}.

    Mirrors the VAM: one count per crossed sense-amplifier threshold.
    """
    if not (0.0 <= low_threshold < high_threshold <= 1.0):
        raise ValueError(
            f"thresholds must satisfy 0 <= low < high <= 1, got "
            f"({low_threshold}, {high_threshold})"
        )
    x = np.asarray(intensities, dtype=float)
    return (x > low_threshold).astype(np.int8) + (x > high_threshold).astype(np.int8)


class TernaryActivation:
    """Differentiable (STE) ternary activation for QAT.

    ``forward`` returns symbols scaled to {0, 0.5, 1} so downstream layers
    see unit-range inputs; ``backward`` passes gradients through inside the
    clip range [0, 1].  ``forward`` keeps a reference to its input and
    ``backward`` derives the clip mask from it, so the caller must not
    mutate the input in between.
    """

    def __init__(
        self,
        low_threshold: float = 1.0 / 3.0,
        high_threshold: float = 2.0 / 3.0,
    ) -> None:
        if not (0.0 <= low_threshold < high_threshold <= 1.0):
            raise ValueError("invalid ternary thresholds")
        self.low_threshold = low_threshold
        self.high_threshold = high_threshold
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        symbols = ternarize(x, self.low_threshold, self.high_threshold)
        return symbols.astype(float) / 2.0

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        x = self._x
        return np.where((x >= 0.0) & (x <= 1.0), grad_out, 0.0)

    def symbols(self, x: np.ndarray) -> np.ndarray:
        """Raw ternary symbols {0, 1, 2} (what the VCSEL actually emits)."""
        return ternarize(x, self.low_threshold, self.high_threshold)


class QuantConv2D(Conv2D):
    """Convolution with fake-quantized weights (QAT, STE backward).

    The float master weights live in ``self.weight``; every forward pass
    snaps them onto the ``bits``-bit grid.  An optional ``weight_transform``
    lets the hardware model inject its non-ideal level map (AWC mismatch,
    MR transmission) *after* quantization, so hardware-in-the-loop
    evaluation reuses this layer unchanged.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        bits: int = 4,
        stride: int = 1,
        padding: int = 0,
        use_bias: bool = False,
        seed: int | None = None,
        weight_transform=None,
    ) -> None:
        super().__init__(
            in_channels,
            out_channels,
            kernel_size,
            stride=stride,
            padding=padding,
            use_bias=use_bias,
            seed=seed,
        )
        self.quantizer = UniformWeightQuantizer(bits)
        self.weight_transform = weight_transform
        self._ste_mask: np.ndarray | None = None

    @property
    def bits(self) -> int:
        """Weight bit-width."""
        return self.quantizer.bits

    def effective_weight(self) -> np.ndarray:
        quantized = self.quantizer.quantize(self.weight.data)
        self._ste_mask = self.quantizer.ste_grad_mask(self.weight.data)
        if self.weight_transform is not None:
            quantized = self.weight_transform(quantized)
        return quantized

    def apply_weight_grad_transform(self, grad_w: np.ndarray) -> np.ndarray:
        if self._ste_mask is None:
            return grad_w
        return grad_w * self._ste_mask


class QuantDense(Dense):
    """Dense layer with fake-quantized weights (the MLP first layer).

    The OISA mapping splits each output neuron's dot product across banks
    and recombines partial sums in the VOM; numerically that is still one
    quantized matrix product, which is what this layer trains against.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bits: int = 4,
        use_bias: bool = False,
        seed: int | None = None,
        weight_transform=None,
    ) -> None:
        super().__init__(in_features, out_features, use_bias=use_bias, seed=seed)
        self.quantizer = UniformWeightQuantizer(bits)
        self.weight_transform = weight_transform
        self._ste_mask: np.ndarray | None = None

    @property
    def bits(self) -> int:
        """Weight bit-width."""
        return self.quantizer.bits

    def effective_weight(self) -> np.ndarray:
        """Quantized (and optionally hardware-transformed) weights."""
        quantized = self.quantizer.quantize(self.weight.data)
        self._ste_mask = self.quantizer.ste_grad_mask(self.weight.data)
        if self.weight_transform is not None:
            quantized = self.weight_transform(quantized)
        return quantized

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x
        self._effective = self.effective_weight()
        out = x @ self._effective.T
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before forward")
        grad_w = grad_out.T @ self._x
        if self._ste_mask is not None:
            grad_w = grad_w * self._ste_mask
        self.weight.grad += grad_w
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self._effective
