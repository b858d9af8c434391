"""Stateless tensor operations used by the layers.

``im2col``/``col2im`` implement the patch-extraction view that turns 2-D
convolution into matrix multiplication; the convolution forward pass, its
per-sample weight gradients and its input gradient are then batched BLAS
matmuls over the column tensor.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "relu",
    "softmax",
    "log_softmax",
    "one_hot",
    "conv_output_shape",
    "im2col",
    "col2im",
]


def relu(x) -> np.ndarray:
    """Element-wise rectified linear unit."""
    return np.maximum(np.asarray(x), 0.0)


def softmax(logits, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels, num_classes: int) -> np.ndarray:
    """One-hot encode integer ``labels`` into ``(B, num_classes)``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= num_classes:
        raise ValueError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def conv_output_shape(
    height: int, width: int, kernel: int, stride: int, padding: int
) -> tuple[int, int]:
    """Spatial output shape of a convolution/pooling window."""
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel={kernel}, stride={stride}, padding={padding} produce "
            f"empty output for input {height}x{width}"
        )
    return out_h, out_w


def im2col(x, kernel: int, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Extract sliding patches from ``x`` of shape ``(B, C, H, W)``.

    Returns a column tensor of shape ``(B, C*kernel*kernel, L)`` where
    ``L = out_h * out_w``, so that a convolution with flattened weights
    ``W_flat (out_c, C*k*k)`` becomes the batched matmul ``W_flat @ cols``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ValueError(f"x must be (B, C, H, W), got shape {x.shape}")
    batch, channels, height, width = x.shape
    out_h, out_w = conv_output_shape(height, width, kernel, stride, padding)

    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))

    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(batch, channels, kernel, kernel, out_h, out_w),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    return np.ascontiguousarray(windows).reshape(
        batch, channels * kernel * kernel, out_h * out_w
    )


def col2im(
    cols,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back into an image tensor.

    ``cols`` has shape ``(B, C*kernel*kernel, L)``; the result has
    ``x_shape = (B, C, H, W)``.  Overlapping patches accumulate, which is
    exactly the gradient of patch extraction.
    """
    batch, channels, height, width = x_shape
    out_h, out_w = conv_output_shape(height, width, kernel, stride, padding)
    cols = np.asarray(cols, dtype=np.float64).reshape(
        batch, channels, kernel, kernel, out_h, out_w
    )

    padded = np.zeros((batch, channels, height + 2 * padding, width + 2 * padding))
    for i in range(kernel):
        for j in range(kernel):
            padded[
                :, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride
            ] += cols[:, :, i, j]
    if padding:
        return padded[:, :, padding : padding + height, padding : padding + width]
    return padded
