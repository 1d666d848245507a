"""Pixel sampling primitives: random and uniform masks, full-frame or in-ROI.

The paper's chosen policy is *pseudo-random sampling within the predicted
ROI* at roughly 20 % of the ROI pixels, giving ~5 % of the frame overall
(Sec. III-A, Sec. VI-A).  The alternatives here back the Fig. 15 ablation.

Masks are boolean ``(H, W)`` arrays, True at transmitted pixels.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "random_mask",
    "uniform_grid_mask",
    "random_mask_in_box",
    "uniform_mask_in_box",
    "apply_mask",
    "effective_compression",
]


def _validate_rate(rate: float) -> None:
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"sampling rate must be in (0, 1]: {rate}")


def random_mask(
    shape: tuple[int, int], rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Bernoulli mask over the whole frame at the given expected rate."""
    _validate_rate(rate)
    return rng.random(shape) < rate


def _grid_strides(rate: float) -> tuple[int, int]:
    """Row/column strides whose product best approximates ``1 / rate``."""
    inverse = 1.0 / rate
    stride_r = max(1, int(np.floor(np.sqrt(inverse))))
    stride_c = max(1, int(round(inverse / stride_r)))
    return stride_r, stride_c


def uniform_grid_mask(shape: tuple[int, int], rate: float) -> np.ndarray:
    """Deterministic uniform downsampling: a regular grid at ~``rate``.

    The classic "uniform downsample" the paper compares against (FULL+DS /
    ROI+DS).  Row and column strides are chosen jointly so the achieved
    rate tracks the target even when ``1/sqrt(rate)`` is far from an
    integer.
    """
    _validate_rate(rate)
    stride_r, stride_c = _grid_strides(rate)
    mask = np.zeros(shape, dtype=bool)
    mask[::stride_r, ::stride_c] = True
    return mask


def random_mask_in_box(
    shape: tuple[int, int],
    pixel_box: tuple[int, int, int, int],
    rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Random sampling restricted to a pixel box (the paper's policy)."""
    _validate_rate(rate)
    mask = np.zeros(shape, dtype=bool)
    r0, c0, r1, c1 = pixel_box
    region = rng.random((max(0, r1 - r0), max(0, c1 - c0))) < rate
    mask[r0:r1, c0:c1] = region
    return mask


def uniform_mask_in_box(
    shape: tuple[int, int],
    pixel_box: tuple[int, int, int, int],
    rate: float,
) -> np.ndarray:
    """Uniform grid restricted to a pixel box (ROI+DS baseline)."""
    _validate_rate(rate)
    mask = np.zeros(shape, dtype=bool)
    r0, c0, r1, c1 = pixel_box
    stride_r, stride_c = _grid_strides(rate)
    sub = np.zeros((max(0, r1 - r0), max(0, c1 - c0)), dtype=bool)
    sub[::stride_r, ::stride_c] = True
    mask[r0:r1, c0:c1] = sub
    return mask


def apply_mask(frame: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Zero out unsampled pixels (what the host receives after RLE decode)."""
    if frame.shape != mask.shape:
        raise ValueError(f"shape mismatch: {frame.shape} vs {mask.shape}")
    return frame * mask


def effective_compression(mask: np.ndarray) -> float:
    """Compression rate = total pixels / transmitted pixels (paper metric)."""
    sampled = int(np.count_nonzero(mask))
    if sampled == 0:
        return float("inf")
    return mask.size / sampled
