"""Array-level neural-network primitives (im2col convolution, pooling).

All tensors follow the NCHW layout.  The convolution is implemented with
``im2col`` so a conv reduces to one GEMM — the standard trick that keeps
NumPy training tractable for the network sizes Table II needs.
"""

from __future__ import annotations

import numpy as np


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output ({out}) for size={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def pad_nchw(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two spatial axes of an NCHW tensor."""
    if padding == 0:
        return x
    n, c, h, w = x.shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    padded[:, :, padding:-padding, padding:-padding] = x
    return padded


def im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
) -> np.ndarray:
    """Unfold an NCHW tensor into convolution columns.

    Returns an array of shape ``(N, C * KH * KW, OH * OW)`` whose columns
    are the receptive fields of each output position.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    x = pad_nchw(x, padding)
    cols = np.empty((n, c, kernel_h, kernel_w, out_h, out_w), dtype=x.dtype)
    for ky in range(kernel_h):
        y_end = ky + stride * out_h
        for kx in range(kernel_w):
            x_end = kx + stride * out_w
            cols[:, :, ky, kx] = x[:, :, ky:y_end:stride, kx:x_end:stride]
    return cols.reshape(n, c * kernel_h * kernel_w, out_h * out_w)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold convolution columns back into an NCHW tensor (im2col adjoint).

    Overlapping positions accumulate, which is exactly the gradient of
    ``im2col``.
    """
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    reshaped = cols.reshape(n, c, kernel_h, kernel_w, out_h, out_w)
    for ky in range(kernel_h):
        y_end = ky + stride * out_h
        for kx in range(kernel_w):
            x_end = kx + stride * out_w
            padded[:, :, ky:y_end:stride, kx:x_end:stride] += reshaped[
                :, :, ky, kx, :, :
            ]
    if padding == 0:
        return padded
    return padded[:, :, padding:-padding, padding:-padding]


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Convolution forward pass.

    Returns ``(output, cols)``; ``cols`` is cached for the backward pass.
    ``weight`` has shape ``(F, C, KH, KW)``.
    """
    n = x.shape[0]
    f, _, kernel_h, kernel_w = weight.shape
    out_h = conv_output_size(x.shape[2], kernel_h, stride, padding)
    out_w = conv_output_size(x.shape[3], kernel_w, stride, padding)
    cols = im2col(x, kernel_h, kernel_w, stride, padding)
    flat_w = weight.reshape(f, -1)
    _, k, p = cols.shape
    if k == 1:
        # The pinned outputs here are einsum's: a broadcast product, not a
        # GEMM, of operands first summed from +0.0 over their size-1 axis
        # (so -0.0 reads +0.0).
        out = (cols + 0.0) * (flat_w.reshape(1, f, 1) + 0.0)
    else:
        # One GEMM of (N*P, K) patch rows against W^T.  BLAS's summation
        # order follows the operands' layout, which the goldens pin: the
        # rows are a free F-ordered view of ``cols`` at N = 1 and a
        # C-ordered copy otherwise.
        rows = cols.transpose(0, 2, 1).reshape(n * p, k)
        out = np.matmul(rows, flat_w.T).reshape(n, p, f).transpose(0, 2, 1)
    if bias is not None:
        out += bias[None, :, None]
    return out.reshape(n, f, out_h, out_w), cols


def conv2d_backward(
    grad_out: np.ndarray,
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    weight: np.ndarray,
    stride: int,
    padding: int,
    with_bias: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Convolution backward pass.

    Returns ``(grad_x, grad_weight, grad_bias)``.
    """
    n, f = grad_out.shape[:2]
    _, _, kernel_h, kernel_w = weight.shape
    grad_flat = grad_out.reshape(n, f, -1)  # (N, F, P)
    grad_weight = np.einsum("nfp,nkp->fk", grad_flat, cols, optimize=True).reshape(
        weight.shape
    )
    grad_bias = grad_flat.sum(axis=(0, 2)) if with_bias else None
    flat_w = weight.reshape(f, -1)
    grad_cols = np.einsum("fk,nfp->nkp", flat_w, grad_flat, optimize=True)
    grad_x = col2im(grad_cols, x_shape, kernel_h, kernel_w, stride, padding)
    return grad_x, grad_weight, grad_bias


def maxpool2d(x: np.ndarray, pool: int, stride: int) -> np.ndarray:
    """Max pooling forward: a running maximum over the pool offsets.

    Equal, bit for bit, to the output of :func:`maxpool2d_forward`, which
    also computes the argmax.  On a tie (only ``-0.0`` against ``+0.0``
    can tell) the earliest element wins, as under ``argmax``: the running
    maximum is passed as ``np.maximum``'s second operand, which NumPy's
    x86 SIMD loops return when the operands compare equal.  A NaN anywhere
    in a window propagates; only a window holding NaNs of different sign
    or payload can tell that the last of them wins, not the first.
    """
    _, _, h, w = x.shape
    out_h = conv_output_size(h, pool, stride, 0)
    out_w = conv_output_size(w, pool, stride, 0)
    windows = [
        x[:, :, ky : ky + stride * out_h : stride, kx : kx + stride * out_w : stride]
        for ky in range(pool)
        for kx in range(pool)
    ]
    out = windows[0].copy()
    for window in windows[1:]:
        np.maximum(window, out, out=out)
    return out


def maxpool2d_forward(
    x: np.ndarray, pool: int, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """Max pooling forward; returns ``(output, argmax_mask_indices)``."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, pool, stride, 0)
    out_w = conv_output_size(w, pool, stride, 0)
    windows = np.lib.stride_tricks.sliding_window_view(x, (pool, pool), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    flat = windows.reshape(n, c, out_h, out_w, pool * pool)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    return out, arg


def maxpool2d_backward(
    grad_out: np.ndarray,
    arg: np.ndarray,
    x_shape: tuple[int, int, int, int],
    pool: int,
    stride: int,
) -> np.ndarray:
    """Max pooling backward: route gradients to the argmax positions."""
    n, c, h, w = x_shape
    out_h, out_w = grad_out.shape[2], grad_out.shape[3]
    grad_x = np.zeros(x_shape, dtype=grad_out.dtype)
    ky = arg // pool
    kx = arg % pool
    oy = np.arange(out_h)[None, None, :, None]
    ox = np.arange(out_w)[None, None, None, :]
    rows = oy * stride + ky
    cols = ox * stride + kx
    nn = np.arange(n)[:, None, None, None]
    cc = np.arange(c)[None, :, None, None]
    np.add.at(grad_x, (nn, cc, rows, cols), grad_out)
    return grad_x


def avgpool2d_forward(x: np.ndarray, pool: int, stride: int) -> np.ndarray:
    """Average pooling forward."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (pool, pool), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    return windows.mean(axis=(-2, -1))


def avgpool2d_backward(
    grad_out: np.ndarray, x_shape: tuple[int, int, int, int], pool: int, stride: int
) -> np.ndarray:
    """Average pooling backward: spread gradients uniformly over windows."""
    grad_x = np.zeros(x_shape, dtype=grad_out.dtype)
    out_h, out_w = grad_out.shape[2], grad_out.shape[3]
    share = grad_out / (pool * pool)
    for ky in range(pool):
        for kx in range(pool):
            grad_x[
                :,
                :,
                ky : ky + stride * out_h : stride,
                kx : kx + stride * out_w : stride,
            ] += share
    return grad_x


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically-stable row softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)
