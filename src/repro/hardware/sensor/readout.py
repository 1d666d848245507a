"""Sparse column-wise readout of the ROI (Fig. 11).

The in-sensor NPU's ROI corners drive the row/column decoders: all rows
between y1..y2 activate simultaneously, columns x1..x2 sequentially, so
the output-buffer stream is **column-major over the ROI**.  Sampled pixels
carry their quantized code; skipped pixels contribute 0 to the stream
(compressed away by the run-length encoder downstream).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SparseReadout", "ReadoutResult"]


@dataclass(frozen=True)
class ReadoutResult:
    """One frame's readout: the column-major ROI stream and accounting."""

    stream: np.ndarray  # 1-D int64 codes, column-major over the ROI
    roi_box: tuple[int, int, int, int]
    converted_pixels: int
    skipped_pixels: int
    #: Seconds to shift the ROI through the output buffer.
    readout_time_s: float


@dataclass(frozen=True)
class SparseReadout:
    """Column-sequential ROI readout with per-pixel skip."""

    #: Column activation period: all rows of one column settle + shift out.
    column_time_s: float = 120e-9
    #: Fixed decoder/sequencer setup per frame.
    setup_time_s: float = 2e-6

    def read_rank(
        self, stream: np.ndarray, sampled: np.ndarray, roi_boxes
    ) -> list[ReadoutResult]:
        """The readouts of a rank of ``(B, 4)`` pixel boxes.

        ``stream`` holds the lanes' column-major ROI streams end to end
        (Fig. 11 reads the ROI column by column), zero at every skipped
        pixel, and ``sampled`` flags the sampled entries.  Indexing the
        transpose of a ``(B, H, W)`` plane with the transposed
        ``boxes_mask`` gathers exactly that: boolean indexing walks lane,
        column, row.  Each result's stream is a view of ``stream``.
        """
        boxes = np.asarray(roi_boxes)
        sizes = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
        heads = np.cumsum(sizes) - sizes
        converted = np.add.reduceat(sampled, heads, dtype=np.int64)
        lanes = zip(boxes.tolist(), heads.tolist(), sizes.tolist(), converted.tolist())
        return [
            ReadoutResult(
                stream=stream[head : head + size],
                roi_box=(r0, c0, r1, c1),
                converted_pixels=n,
                skipped_pixels=size - n,
                readout_time_s=self.setup_time_s + (c1 - c0) * self.column_time_s,
            )
            for (r0, c0, r1, c1), head, size, n in lanes
        ]

    @staticmethod
    def reconstruct(
        stream: np.ndarray,
        roi_box: tuple[int, int, int, int],
        frame_shape: tuple[int, int],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Host-side inverse: stream -> (codes (H, W), mask (H, W)).

        Pixels with code 0 inside the ROI are treated as unsampled (the
        sensor lifts sampled pixels to >= 1 LSB before encoding).
        """
        r0, c0, r1, c1 = roi_box
        height, width = frame_shape
        rows, cols = r1 - r0, c1 - c0
        if stream.size != rows * cols:
            raise ValueError(
                f"stream length {stream.size} does not match ROI {roi_box}"
            )
        roi = stream.reshape(cols, rows).T
        codes = np.zeros(frame_shape, dtype=np.int64)
        codes[r0:r1, c0:c1] = roi
        mask = np.zeros(frame_shape, dtype=bool)
        mask[r0:r1, c0:c1] = roi > 0
        return codes, mask
