"""Gaze prediction from segmentation maps (paper Sec. II-A).

The paper's pipeline ends with a *regression model based on the geometric
model of human eyes* that maps the segmentation map to a gaze vector; this
stage is cheap compared to segmentation.  Two estimators are provided:

* :class:`GeometricGazeEstimator` — inverts the known synthetic eye
  geometry exactly (oracle calibration, used to isolate segmentation
  error);
* :class:`FittedGazeEstimator` — least-squares calibration of the
  pupil-centroid -> gaze map from labelled frames, i.e. what a real system
  does during its per-user calibration step.

Both take the pupil centroid of the predicted segmentation; when the pupil
is fully occluded (blink) they fall back to the iris, then to the previous
estimate.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.synth.eye_model import SEG_CLASSES, EyeGeometry

__all__ = [
    "pupil_centroid",
    "pupil_centroid_batch",
    "GeometricGazeEstimator",
    "FittedGazeEstimator",
]


def pupil_centroid(
    segmentation: np.ndarray, min_pixels: int = 3
) -> tuple[float, float] | None:
    """Normalized (row, col) centroid of the pupil, iris as fallback.

    Returns None when neither class has at least ``min_pixels`` pixels
    (e.g. during a blink).  Coordinates are normalized by the image
    *height*, matching :class:`~repro.synth.eye_model.EyeGeometry`.
    """
    return pupil_centroid_batch(segmentation[None], min_pixels)[0]


def pupil_centroid_batch(
    segmentations: np.ndarray, min_pixels: int = 3
) -> list[tuple[float, float] | None]:
    """Per-row :func:`pupil_centroid` over a stacked ``(B, H, W)`` rank.

    One matmul of each class's pixel mask against the per-pixel
    ``(row, col, 1)`` weights gives every row's index sums and pixel
    count.  Every product and partial sum is an integer far below 2**53,
    so the float64 GEMM is exact in any summation order: each mean is
    bitwise independent of the rank, and equal to ``ndarray.mean`` over
    the pixel indices.
    """
    if segmentations.ndim != 3:
        raise ValueError(f"expected (B, H, W) maps, got {segmentations.shape}")
    b, height, width = segmentations.shape
    weights = _pixel_weights(height, width)
    flat = segmentations.reshape(b, height * width)
    out: list[tuple[float, float] | None] = [None] * b
    for cls in (SEG_CLASSES["pupil"], SEG_CLASSES["iris"]):
        pending = [i for i in range(b) if out[i] is None]
        if not pending:
            break
        sums = (flat[pending] == cls) @ weights  # (P, 3), exact integers
        for i, (row_sum, col_sum, count) in zip(pending, sums):
            if count >= min_pixels:
                out[i] = (
                    float((row_sum / count + 0.5) / height),
                    float((col_sum / count + 0.5) / height),
                )
    return out


@functools.lru_cache(maxsize=8)
def _pixel_weights(height: int, width: int) -> np.ndarray:
    """``(H*W, 3)`` float64 rows of (row index, col index, 1) per pixel."""
    rows, cols = np.indices((height, width), dtype=np.float64).reshape(2, -1)
    weights = np.stack([rows, cols, np.ones_like(rows)], axis=1)
    weights.flags.writeable = False
    return weights


class GeometricGazeEstimator:
    """Invert the known eye geometry: centroid -> gaze, exactly."""

    #: Fallback gaze before any frame with a visible pupil has been seen.
    INITIAL_FALLBACK: tuple[float, float] = (0.0, 0.0)

    def __init__(self, geometry: EyeGeometry):
        self.geometry = geometry
        self._last: tuple[float, float] = self.INITIAL_FALLBACK

    @property
    def fallback_state(self) -> tuple[float, float]:
        """The gaze emitted when the pupil is fully occluded."""
        return self._last

    @fallback_state.setter
    def fallback_state(self, value: tuple[float, float]) -> None:
        self._last = value

    def predict(self, segmentation: np.ndarray) -> tuple[float, float]:
        """Gaze ``(horizontal, vertical)`` in degrees."""
        return self.predict_from_centroid(pupil_centroid(segmentation))

    def predict_from_centroid(
        self, centroid: tuple[float, float] | None
    ) -> tuple[float, float]:
        """Gaze from a precomputed centroid; None means occlusion fallback.

        The seam the gaze stage uses: centroid extraction vectorizes
        across the rank, while this per-row tail threads the fallback
        exactly as :meth:`predict` does.
        """
        if centroid is None:
            return self._last
        gaze = self.geometry.gaze_from_pupil(*centroid)
        self._last = gaze
        return gaze


class FittedGazeEstimator:
    """Per-user linear calibration: least squares on (row, col, 1) -> gaze.

    The linear map is exact for small angles (sin(theta) ~ theta) and a
    close approximation over the +-25 degree cone the synthetic eye covers,
    mirroring commercial calibration procedures.
    """

    #: Fallback gaze before any frame with a visible pupil has been seen.
    INITIAL_FALLBACK: tuple[float, float] = (0.0, 0.0)

    def __init__(self):
        self._coef: np.ndarray | None = None  # (3, 2)
        self._last: tuple[float, float] = self.INITIAL_FALLBACK

    @property
    def is_fitted(self) -> bool:
        return self._coef is not None

    @property
    def fallback_state(self) -> tuple[float, float]:
        """The gaze emitted when the pupil is fully occluded."""
        return self._last

    @fallback_state.setter
    def fallback_state(self, value: tuple[float, float]) -> None:
        self._last = value

    def fit(self, segmentations: np.ndarray, gazes: np.ndarray) -> None:
        """Calibrate from (N, H, W) ground-truth maps and (N, 2) gazes."""
        features, targets = [], []
        for centroid, gaze in zip(pupil_centroid_batch(segmentations), gazes):
            if centroid is None:
                continue
            features.append([centroid[0], centroid[1], 1.0])
            targets.append(gaze)
        if len(features) < 3:
            raise ValueError(
                f"need at least 3 frames with a visible pupil, got {len(features)}"
            )
        design = np.asarray(features)
        self._coef, *_ = np.linalg.lstsq(design, np.asarray(targets), rcond=None)

    def predict(self, segmentation: np.ndarray) -> tuple[float, float]:
        if self._coef is None:
            raise RuntimeError("estimator is not fitted; call fit() first")
        return self.predict_from_centroid(pupil_centroid(segmentation))

    def predict_from_centroid(
        self, centroid: tuple[float, float] | None
    ) -> tuple[float, float]:
        """Gaze from a precomputed centroid; None means occlusion fallback.

        The ``(3,) @ (3, 2)`` regression stays per-row on purpose: a
        stacked BLAS call is not provably row-invariant, and the gaze
        stage only needs the O(B*H*W) centroid extraction
        (:func:`pupil_centroid_batch`) vectorized.
        """
        if self._coef is None:
            raise RuntimeError("estimator is not fitted; call fit() first")
        if centroid is None:
            return self._last
        feat = np.array([centroid[0], centroid[1], 1.0])
        gaze_h, gaze_v = feat @ self._coef
        self._last = (float(gaze_h), float(gaze_v))
        return self._last
