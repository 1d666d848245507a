"""Per-frame and per-sequence state flowing through the staged engine.

A :class:`FrameContext` is the unit of work: one exposure travelling
through the stage graph, accumulating intermediate products (event map,
ROI box, sample mask, sparse frame, segmentation, gaze) plus the
measured statistics the hardware models consume; per-stage wall time
lives in the trace (``engine.stage`` spans).  A
:class:`SequenceState` carries everything that persists *across* frames of
one sequence — the spawned sensor, the previous segmentation fed back to
the ROI predictor (Fig. 8's cross-frame dependency), and arbitrary
per-sequence stage slots (ROI-reuse policy, gaze fallback state).

Keeping all cross-frame state in ``SequenceState`` (never on the stages
themselves) is what lets the runner execute many sequences in lockstep:
stages are shared, state is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["FrameContext", "SequenceState"]


@dataclass
class FrameContext:
    """One frame's journey through the stage graph."""

    seq_index: int
    t: int
    frame: np.ndarray
    prev_frame: np.ndarray | None = None
    # Ground truth (when available from the dataset).
    gaze_true: np.ndarray | None = None
    gt_box: tuple[int, int, int, int] | None = None
    # Stage products.
    event_map: np.ndarray | None = None
    roi_box_norm: np.ndarray | None = None
    roi_box: tuple[int, int, int, int] | None = None
    roi_reused: bool = False
    #: ``(H, W)`` pixels inside ``roi_box``, built once by the sample stage.
    roi_mask: np.ndarray | None = None
    sample_mask: np.ndarray | None = None
    readout: Any = None
    rle_stats: Any = None
    sparse_frame: np.ndarray | None = None
    mask: np.ndarray | None = None
    seg_pred: np.ndarray | None = None
    seg_reused: bool = False
    gaze_pred: tuple[float, float] | None = None
    #: SKIP-style strategies: host should reuse the previous segmentation.
    reuse_previous: bool = False
    #: True when this frame produced no sensor output (bootstrap frame);
    #: the runner short-circuits the remaining stages.
    skipped: bool = False
    #: Per-frame measured statistics (stats collector output).
    stats: dict[str, Any] = field(default_factory=dict)

    def release_intermediates(self) -> None:
        """Drop the bulky per-frame products, keeping scalars.

        Called by the runner (``retain_intermediates=False``) once every
        stage has consumed the frame: evaluation collectors only need
        ``gaze_pred``/``gaze_true``/``stats``, while the arrays here are
        O(frame size) each and would otherwise keep the whole run
        resident — and, in sharded mode, be pickled back from the worker
        process for nothing.  The input ``frame`` is released
        too: no stage touches it after the frame's own timestep.
        """
        self.frame = None
        self.event_map = None
        self.roi_mask = None
        self.sample_mask = None
        self.readout = None
        self.sparse_frame = None
        self.mask = None
        self.seg_pred = None
        self.prev_frame = None

    def validate(self) -> None:
        """Check the invariants a completed (non-skipped) context obeys.

        Used by the engine tests; cheap enough to call ad hoc while
        debugging a new stage graph.
        """
        if self.skipped:
            return
        if self.event_map is not None and self.event_map.dtype != np.bool_:
            raise AssertionError("event map must be boolean")
        if self.mask is not None:
            if self.mask.dtype != np.bool_:
                raise AssertionError("sampling mask must be boolean")
            if self.sparse_frame is None:
                raise AssertionError("mask without sparse frame")
            if self.sparse_frame.shape != self.mask.shape:
                raise AssertionError("sparse frame / mask shape mismatch")
            if np.any(self.sparse_frame[~self.mask] != 0.0):
                raise AssertionError("sparse frame non-zero outside the mask")
        if self.roi_box is not None:
            r0, c0, r1, c1 = self.roi_box
            if not (r0 < r1 and c0 < c1):
                raise AssertionError(f"degenerate ROI box {self.roi_box}")
        if self.seg_pred is not None and self.seg_pred.shape != self.frame.shape:
            raise AssertionError("segmentation shape mismatch")


@dataclass
class SequenceState:
    """Cross-frame state of one sequence being executed."""

    seq_index: int
    #: The per-sequence spawned sensor (tracking graphs only).
    sensor: Any = None
    #: Previous frame's *predicted* segmentation, fed back to the ROI
    #: predictor and reused by SKIP-style strategies.
    prev_seg_pred: np.ndarray | None = None
    #: Free-form per-sequence stage state keyed by stage name.
    slots: dict[str, Any] = field(default_factory=dict)
