"""Stateless numerical kernels shared by the layer implementations.

Everything here is a plain function over numpy arrays: im2col/col2im for
convolution, numerically-stable softmax/log-softmax, GELU and its exact
derivative, and small helpers (one-hot, patchify) used across the library.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "im2col",
    "col2im",
    "conv_output_size",
    "softmax",
    "log_softmax",
    "gelu",
    "gelu_grad",
    "sigmoid",
    "one_hot",
    "patchify",
    "unpatchify",
    "grey_dilation",
    "grey_erosion",
    "stack_rows",
]


def stack_rows(rows) -> np.ndarray:
    """Stack same-shaped arrays into one ``(B, ...)`` rank array.

    A rank of width 1 is a ``[None]`` view of its row — no copy, so a
    single frame costs what a per-frame kernel would.  Wider ranks are
    one ``np.array`` copy (cheaper per call than ``np.stack`` on the
    narrow ranks the engine runs).  Either way the result is for
    reading: kernels never write into a stacked rank.
    """
    if len(rows) == 1:
        return rows[0][None]
    return np.array(rows)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output size for input={size}, "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )
    return out


def im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int]:
    """Unfold ``(B, C, H, W)`` into convolution columns.

    Returns
    -------
    cols:
        Array of shape ``(B, C * kernel * kernel, OH * OW)``.
    oh, ow:
        Output spatial dimensions.
    """
    batch, channels, height, width = x.shape
    oh = conv_output_size(height, kernel, stride, padding)
    ow = conv_output_size(width, kernel, stride, padding)
    if padding:
        # Zeros + assign: bitwise-equal to np.pad(constant) at a fraction
        # of its dispatch cost — this runs per conv call on the hot path.
        padded = np.zeros(
            (batch, channels, height + 2 * padding, width + 2 * padding),
            dtype=x.dtype,
        )
        padded[:, :, padding : padding + height, padding : padding + width] = x
        x = padded
    # Strided sliding-window view: (B, C, K, K, OH, OW)
    s = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(batch, channels, kernel, kernel, oh, ow),
        strides=(s[0], s[1], s[2], s[3], s[2] * stride, s[3] * stride),
        writeable=False,
    )
    cols = windows.reshape(batch, channels * kernel * kernel, oh * ow)
    return np.ascontiguousarray(cols), oh, ow


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back to an image.

    ``cols`` has shape ``(B, C * K * K, OH * OW)``; the result has
    ``input_shape`` = ``(B, C, H, W)``.
    """
    batch, channels, height, width = input_shape
    oh = conv_output_size(height, kernel, stride, padding)
    ow = conv_output_size(width, kernel, stride, padding)
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding), dtype=cols.dtype
    )
    cols = cols.reshape(batch, channels, kernel, kernel, oh, ow)
    for ki in range(kernel):
        for kj in range(kernel):
            padded[
                :,
                :,
                ki : ki + stride * oh : stride,
                kj : kj + stride * ow : stride,
            ] += cols[:, :, ki, kj]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def softmax(
    x: np.ndarray, axis: int = -1, out: np.ndarray | None = None
) -> np.ndarray:
    """Numerically stable softmax, computed in one buffer.

    ``out`` may be ``x`` itself.  Same operations in the same order as
    ``exp(x - max) / sum(exp(x - max))``, so bitwise-equal to it.
    """
    out = np.subtract(x, np.max(x, axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= np.sum(out, axis=axis, keepdims=True)
    return out


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(x: np.ndarray) -> np.ndarray:
    """Tanh-approximated GELU (as used in ViT MLP blocks).

    Cubes are spelled as explicit multiplies: ``np.power`` with an
    integer exponent runs ~40x slower than two multiplications and this
    is the single hottest elementwise op in ViT training and inference.
    The steps of ``0.5 * x * (1 + tanh(c * (x + 0.044715 * x**3)))`` run
    in place in two buffers, in the same order, so the result is
    bitwise-equal to that expression.
    """
    inner = x * x
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= _GELU_C
    np.tanh(inner, out=inner)
    inner += 1.0
    out = 0.5 * x
    out *= inner
    return out


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """Exact derivative of the tanh-approximated GELU."""
    x2 = x * x
    inner = _GELU_C * (x + 0.044715 * (x2 * x))
    tanh_inner = np.tanh(inner)
    sech2 = 1.0 - tanh_inner * tanh_inner
    d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x2)
    return 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode integer labels along a new trailing axis."""
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(
            f"labels out of range [0, {num_classes}): "
            f"[{labels.min()}, {labels.max()}]"
        )
    flat = labels.reshape(-1)
    out = np.zeros((flat.size, num_classes), dtype=np.float64)
    out[np.arange(flat.size), flat] = 1.0
    return out.reshape(*labels.shape, num_classes)


def _morphology_windows(x: np.ndarray, size: int) -> np.ndarray:
    """Sliding ``size x size`` windows of a 2-D array, edge-padded.

    Shared plumbing of :func:`grey_dilation` / :func:`grey_erosion`.
    Edge replication keeps border maxima/minima inside the value range of
    the input (a reflect pad would too; the choice only affects a
    ``size // 2`` border band).
    """
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {x.shape}")
    if size < 1 or size % 2 == 0:
        raise ValueError(f"window size must be a positive odd integer: {size}")
    pad = size // 2
    padded = np.pad(x, pad, mode="edge")
    return np.lib.stride_tricks.sliding_window_view(padded, (size, size))


def grey_dilation(x: np.ndarray, size: int) -> np.ndarray:
    """Greyscale dilation: moving maximum over a ``size x size`` window.

    A minimal numpy replacement for ``scipy.ndimage.grey_dilation`` with a
    flat square structuring element — used by the joint-training cue
    augmentation.
    """
    return _morphology_windows(x, size).max(axis=(-2, -1))


def grey_erosion(x: np.ndarray, size: int) -> np.ndarray:
    """Greyscale erosion: moving minimum over a ``size x size`` window."""
    return _morphology_windows(x, size).min(axis=(-2, -1))


def patchify(x: np.ndarray, patch: int) -> np.ndarray:
    """Split ``(B, C, H, W)`` into non-overlapping patch tokens.

    Returns ``(B, T, C * patch * patch)`` with ``T = (H // patch) * (W // patch)``.
    H and W must be divisible by ``patch``.
    """
    batch, channels, height, width = x.shape
    if height % patch or width % patch:
        raise ValueError(f"image {height}x{width} not divisible by patch {patch}")
    gh, gw = height // patch, width // patch
    x = x.reshape(batch, channels, gh, patch, gw, patch)
    x = x.transpose(0, 2, 4, 1, 3, 5)  # B, gh, gw, C, p, p
    return x.reshape(batch, gh * gw, channels * patch * patch)


def unpatchify(
    tokens: np.ndarray, patch: int, channels: int, height: int, width: int
) -> np.ndarray:
    """Inverse of :func:`patchify`."""
    batch, num_tokens, dim = tokens.shape
    gh, gw = height // patch, width // patch
    if num_tokens != gh * gw or dim != channels * patch * patch:
        raise ValueError("token grid does not match the target image shape")
    x = tokens.reshape(batch, gh, gw, channels, patch, patch)
    x = x.transpose(0, 3, 1, 4, 2, 5)
    return x.reshape(batch, channels, height, width)
