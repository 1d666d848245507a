"""The sampling-strategy zoo of Fig. 15.

Seven ways to decide which pixels leave the sensor, all normalized to a
common interface so the ablation benchmark can sweep compression rates:

==================  =====================================================
``FullRandom``      uniformly-at-random over the full frame (FULL+RANDOM)
``FullDownsample``  regular-grid downsample of the full frame (FULL+DS)
``SkipStrategy``    event-density gate: reuse the previous segmentation
                    when the frame is quiet, else send everything (SKIP)
``ROIDownsample``   regular grid restricted to the ROI (ROI+DS)
``ROIFixed``        offline-overfit fixed mask from dataset statistics
                    (ROI+FIXED)
``ROILearned``      an extra learned network scores pixels, top-k selected
                    (ROI+LEARNED)
``ROIRandom``       random sampling inside the predicted ROI — **ours**
==================  =====================================================

Every strategy receives the *target compression rate* (total pixels over
transmitted pixels) and translates it into its own internal rate; ROI-based
strategies therefore sample more densely inside small ROIs, exactly like
the paper's accounting.
"""

from __future__ import annotations

import copy

from dataclasses import dataclass, field

import numpy as np

from repro.nn.functional import stack_rows
from repro.sampling import random_sampling as rs

__all__ = [
    "SamplingDecision",
    "SamplingStrategy",
    "FullRandom",
    "FullDownsample",
    "SkipStrategy",
    "ROIDownsample",
    "ROIFixed",
    "ROILearned",
    "ROIRandom",
    "STRATEGIES",
    "STRATEGY_NAMES",
]


@dataclass
class SamplingDecision:
    """What the sensor decided to transmit for one frame."""

    mask: np.ndarray  # (H, W) bool, True at transmitted pixels
    sparse_frame: np.ndarray  # frame with unsampled pixels zeroed
    roi_box: tuple[int, int, int, int] | None  # pixel box used, if any
    #: True when the host should reuse the previous frame's segmentation
    #: instead of running the network (SKIP baseline only).
    reuse_previous: bool = False

    @property
    def transmitted_pixels(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def compression(self) -> float:
        return rs.effective_compression(self.mask)


def _in_roi_rate(
    frame_shape: tuple[int, int],
    pixel_box: tuple[int, int, int, int],
    compression: float,
) -> float:
    """In-ROI sampling rate that hits the frame-level compression target."""
    total = frame_shape[0] * frame_shape[1]
    area = max(1, (pixel_box[2] - pixel_box[0]) * (pixel_box[3] - pixel_box[1]))
    return float(np.clip(total / (compression * area), 1e-6, 1.0))


class SamplingStrategy:
    """Base interface: produce a :class:`SamplingDecision` per frame.

    A strategy has one kernel, :meth:`sample_batch`, over a lockstep rank
    of frames; :meth:`sample` is that kernel at width 1.
    """

    name = "base"
    #: True when sampling draws from the per-frame RNG stream —
    #: stochastic strategies produce a fresh mask on every call, while
    #: deterministic ones (Full+DS, Skip, ROI+DS, ROI+Fixed) are a pure
    #: function of the frame inputs and their own per-sequence state.
    stochastic = True

    def __init__(self, compression: float):
        if compression < 1.0:
            raise ValueError(f"compression rate must be >= 1: {compression}")
        self.compression = compression
        #: Populated by :meth:`spawn`; per-sequence clones carry their own
        #: stream so execution order (lockstep, sharding) can't change
        #: what each sequence draws.
        self.rng: np.random.Generator | None = None

    @classmethod
    def build(cls, compression: float, dataset=None) -> "SamplingStrategy":
        """The :data:`STRATEGIES` factory: a strategy at ``compression``
        (``dataset`` is read only by strategies fit to it)."""
        return cls(compression)

    def spawn(self, seed_key) -> "SamplingStrategy":
        """A per-sequence clone with fresh adaptive state and RNG stream.

        Mirrors :meth:`BlissCamSensor.spawn`: everything fixed at
        construction/fit time (compression target, fitted masks, scorers)
        is shared, while the mutable per-sequence pieces — the adaptive
        state (:meth:`_reset_state`) and the random stream keyed by
        ``seed_key`` — are independent.  The staged engine spawns one
        clone per evaluated sequence, keyed by sequence index, which is
        what lets strategy graphs run at any rank width and sharded with
        bitwise-identical results.
        """
        key = list(seed_key) if np.iterable(seed_key) else [int(seed_key)]
        clone = copy.copy(self)
        clone.rng = np.random.default_rng(key)
        clone._reset_state()
        return clone

    def _reset_state(self) -> None:
        """Reset per-sequence adaptive state (overridden by Skip)."""

    def sample(
        self,
        frame: np.ndarray,
        event_map: np.ndarray,
        roi_box: tuple[int, int, int, int] | None,
        rng: np.random.Generator,
    ) -> SamplingDecision:
        """One frame: a width-1 :meth:`sample_batch` rank drawing from ``rng``."""
        return self.sample_batch([self], [frame], [event_map], [roi_box], [rng])[0]

    def sample_batch(
        self,
        strategies: list["SamplingStrategy"],
        frames: list[np.ndarray],
        event_maps: list[np.ndarray],
        roi_boxes: list[tuple[int, int, int, int] | None],
        rngs: list[np.random.Generator],
    ) -> list[SamplingDecision]:
        """Decisions for one lockstep rank, each row independent of the rest.

        ``strategies`` are the per-row strategy states in rank order —
        per-sequence :meth:`spawn` clones of this template — and ``rngs``
        the per-row streams (normally each clone's own ``rng``).  Kernels
        vectorize the mask and sparse-frame math across the rank but
        draw any randomness row by row from ``rngs[i]``, in rank order,
        so every sequence's stream consumes the same draws at any rank
        width — the invariant that keeps width-1, lockstep and sharded
        execution bitwise identical.
        """
        raise NotImplementedError

    def _full_frame_box(self, frame: np.ndarray) -> tuple[int, int, int, int]:
        return (0, 0, frame.shape[0], frame.shape[1])


class FullRandom(SamplingStrategy):
    """FULL+RANDOM: ignore the ROI, Bernoulli-sample the entire frame."""

    name = "Full+Random"

    def sample_batch(self, strategies, frames, event_maps, roi_boxes, rngs):
        rate = 1.0 / self.compression
        # Per-row draws from each row's own stream, rank order; the
        # compare and the sparse multiply are elementwise, so stacking
        # is exact.
        draws = stack_rows([rng.random(f.shape) for rng, f in zip(rngs, frames)])
        masks = draws < rate
        sparse = stack_rows(frames) * masks
        return [
            SamplingDecision(masks[i], sparse[i], None)
            for i in range(len(strategies))
        ]


class FullDownsample(SamplingStrategy):
    """FULL+DS: regular-grid downsample of the entire frame."""

    name = "Full+DS"
    stochastic = False

    def sample_batch(self, strategies, frames, event_maps, roi_boxes, rngs):
        # The grid is a pure function of shape and compression: one
        # construction serves the whole rank, one stacked multiply
        # builds every sparse frame.
        mask = rs.uniform_grid_mask(frames[0].shape, 1.0 / self.compression)
        sparse = stack_rows(frames) * mask
        return [
            SamplingDecision(mask.copy(), sparse[i], None)
            for i in range(len(strategies))
        ]


class SkipStrategy(SamplingStrategy):
    """SKIP: reuse the previous result when the event density is low.

    Emulates EdGaze's event-driven gate [49]: quiet frames transmit nothing
    and the host reuses the previous segmentation; active frames transmit
    the full frame.  The density threshold is derived from the compression
    target: to average a compression of C, roughly (1 - 1/C) of frames must
    be skipped, so the threshold adapts online to the running skip rate.
    """

    name = "Skip"
    stochastic = False

    def __init__(self, compression: float, density_threshold: float | None = None):
        super().__init__(compression)
        self.density_threshold = (
            density_threshold if density_threshold is not None else 0.01
        )
        self._frames_seen = 0
        self._frames_sent = 0

    def _reset_state(self) -> None:
        # The adaptive send-rate gate restarts per sequence: spawned
        # clones must not inherit another sequence's running skip rate.
        self._frames_seen = 0
        self._frames_sent = 0

    def sample_batch(self, strategies, frames, event_maps, roi_boxes, rngs):
        # The densities vectorize (integer popcount over the rank, then
        # the same int/int division event_density performs); the
        # adaptive send-rate gate is per-sequence state and stays a
        # cheap per-row scan in rank order.  Skip draws nothing from the
        # RNG, so stream order is not at stake.
        events = stack_rows(event_maps)
        if events[0].size == 0:
            raise ValueError("empty event map")
        counts = np.count_nonzero(events, axis=(1, 2))
        size = events[0].size
        decisions = []
        for s, frame, count in zip(strategies, frames, counts):
            s._frames_seen += 1
            target_send_rate = 1.0 / s.compression
            sent_rate = s._frames_sent / max(1, s._frames_seen)
            # Adaptive gate: lean toward sending when under budget.
            threshold = s.density_threshold * (
                2.0 if sent_rate > target_send_rate else 0.5
            )
            if count / size < threshold:
                mask = np.zeros(frame.shape, dtype=bool)
                decisions.append(
                    SamplingDecision(
                        mask, np.zeros_like(frame), None, reuse_previous=True
                    )
                )
            else:
                s._frames_sent += 1
                mask = np.ones(frame.shape, dtype=bool)
                decisions.append(
                    SamplingDecision(mask, frame.copy(), s._full_frame_box(frame))
                )
        return decisions


class ROIDownsample(SamplingStrategy):
    """ROI+DS: regular grid restricted to the predicted ROI."""

    name = "ROI+DS"
    stochastic = False

    def sample_batch(self, strategies, frames, event_maps, roi_boxes, rngs):
        # Box shapes differ per row, so the grid construction stays
        # per-row; the sparse-frame multiply stacks across the rank.
        boxes, masks = [], []
        for frame, roi_box in zip(frames, roi_boxes):
            box = roi_box or self._full_frame_box(frame)
            boxes.append(box)
            rate = _in_roi_rate(frame.shape, box, self.compression)
            masks.append(rs.uniform_mask_in_box(frame.shape, box, rate))
        stacked = stack_rows(masks)
        sparse = stack_rows(frames) * stacked
        return [
            SamplingDecision(stacked[i], sparse[i], boxes[i])
            for i in range(len(strategies))
        ]


@dataclass
class ROIFixed(SamplingStrategy):
    """ROI+FIXED: a single mask overfit offline to dataset statistics.

    :meth:`fit` accumulates the average foreground-probability map over a
    training set; sampling always transmits the top-K most-often-foreground
    pixels, regardless of where the eye actually is this frame.
    """

    compression: float
    _prob_map: np.ndarray | None = field(default=None, repr=False)
    name = "ROI+Fixed"
    stochastic = False

    def __post_init__(self):
        SamplingStrategy.__init__(self, self.compression)

    @classmethod
    def build(cls, compression: float, dataset=None) -> "ROIFixed":
        """Fit the mask to ``dataset``'s ground-truth foreground."""
        from repro.synth.eye_model import SEG_CLASSES

        if dataset is None:
            raise ValueError("ROI+Fixed needs a dataset to fit its mask")
        strategy = cls(compression)
        strategy.fit(
            np.concatenate(
                [seq.segmentations != SEG_CLASSES["background"] for seq in dataset]
            )
        )
        return strategy

    def fit(self, foreground_masks: np.ndarray) -> None:
        """``foreground_masks``: (N, H, W) boolean ground-truth foreground."""
        if foreground_masks.ndim != 3:
            raise ValueError("expected a (N, H, W) stack of masks")
        self._prob_map = foreground_masks.astype(np.float64).mean(axis=0)

    def _fixed_mask(self, frame_shape: tuple[int, int], frame_size: int) -> np.ndarray:
        if self._prob_map is None:
            raise RuntimeError("ROIFixed must be fit() before sampling")
        budget = max(1, int(round(frame_size / self.compression)))
        flat = self._prob_map.ravel()
        # Deterministic top-K by probability; ties broken by pixel index.
        top = np.argpartition(-flat, min(budget, flat.size - 1))[:budget]
        mask = np.zeros(frame_size, dtype=bool)
        mask[top] = True
        return mask.reshape(frame_shape)

    def sample_batch(self, strategies, frames, event_maps, roi_boxes, rngs):
        # The mask is a pure function of fit-time state shared by every
        # spawn: one top-K serves the rank, one stacked multiply builds
        # all the sparse frames.
        mask = self._fixed_mask(frames[0].shape, frames[0].size)
        sparse = stack_rows(frames) * mask
        return [
            SamplingDecision(mask.copy(), sparse[i], None)
            for i in range(len(strategies))
        ]


class ROILearned(SamplingStrategy):
    """ROI+LEARNED: an additional network predicts which pixels to sample.

    The paper implements this with an extra in-sensor ViT and finds the
    accuracy comparable to random sampling but the hardware cost
    intolerable.  Here the scorer is any callable mapping a frame to a
    per-pixel importance map (the default uses the event map blurred by a
    box filter as a stand-in for a trained scorer; a trained
    :class:`~repro.sampling.roi.ROIPredictor`-style scorer can be plugged
    in).  Top-K pixels inside the ROI are transmitted.
    """

    name = "ROI+Learned"

    def __init__(self, compression: float, scorer=None):
        super().__init__(compression)
        self.scorer = scorer

    @staticmethod
    def _default_scores(event_maps: np.ndarray) -> np.ndarray:
        """Box-blurred event density over a stacked ``(B, H, W)`` rank.

        A cheap learned-importance surrogate.  The dr/dc shift-accumulate
        is elementwise per pixel, so every row is independent of the rank.
        """
        kernel = 5
        pad = kernel // 2
        padded = np.pad(
            event_maps.astype(np.float64),
            ((0, 0), (pad, pad), (pad, pad)),
            mode="edge",
        )
        out = np.zeros(event_maps.shape, dtype=np.float64)
        for dr in range(kernel):
            for dc in range(kernel):
                out += padded[
                    :,
                    dr : dr + event_maps.shape[1],
                    dc : dc + event_maps.shape[2],
                ]
        return out

    def _select(self, scores, box, frame, rng):
        """Tie-broken top-K mask inside ``box`` — the per-row RNG seam."""
        scores = scores + rng.random(scores.shape) * 1e-9  # tie breaking
        region = np.full(frame.shape, -np.inf)
        r0, c0, r1, c1 = box
        region[r0:r1, c0:c1] = scores[r0:r1, c0:c1]
        budget = max(1, int(round(frame.size / self.compression)))
        flat = region.ravel()
        top = np.argpartition(-flat, min(budget, flat.size - 1))[:budget]
        mask = np.zeros(frame.size, dtype=bool)
        mask[top] = True
        mask &= np.isfinite(flat)
        return mask.reshape(frame.shape)

    def sample_batch(self, strategies, frames, event_maps, roi_boxes, rngs):
        # The default box-blur scorer vectorizes over the rank; custom
        # scorers keep their per-frame contract.  Tie-break draws and the
        # box-restricted top-K stay per-row (own stream, varying boxes).
        if self.scorer is not None:
            score_rows = [
                self.scorer(f, e) for f, e in zip(frames, event_maps)
            ]
        else:
            score_rows = list(self._default_scores(stack_rows(event_maps)))
        boxes, masks = [], []
        for rng, frame, scores, roi_box in zip(
            rngs, frames, score_rows, roi_boxes
        ):
            box = roi_box or self._full_frame_box(frame)
            boxes.append(box)
            masks.append(self._select(scores, box, frame, rng))
        stacked = stack_rows(masks)
        sparse = stack_rows(frames) * stacked
        return [
            SamplingDecision(stacked[i], sparse[i], boxes[i])
            for i in range(len(strategies))
        ]


class ROIRandom(SamplingStrategy):
    """Ours: pseudo-random sampling inside the predicted ROI (Sec. III-A)."""

    name = "Ours (ROI+Random)"

    def sample_batch(self, strategies, frames, event_maps, roi_boxes, rngs):
        # Box-shaped draws stay per-row from each row's own stream (box
        # sizes differ per sequence, so the draw shapes do too); the
        # sparse multiply stacks.
        boxes, masks = [], []
        for rng, frame, roi_box in zip(rngs, frames, roi_boxes):
            box = roi_box or self._full_frame_box(frame)
            boxes.append(box)
            rate = _in_roi_rate(frame.shape, box, self.compression)
            masks.append(rs.random_mask_in_box(frame.shape, box, rate, rng))
        stacked = stack_rows(masks)
        sparse = stack_rows(frames) * stacked
        return [
            SamplingDecision(stacked[i], sparse[i], boxes[i])
            for i in range(len(strategies))
        ]


#: The Fig. 15 zoo by spec name: ``name -> factory(compression,
#: dataset=None)``, in the order a full sweep runs them.
STRATEGIES = {
    cls.name: cls.build
    for cls in (
        FullRandom,
        FullDownsample,
        SkipStrategy,
        ROIDownsample,
        ROIFixed,
        ROILearned,
        ROIRandom,
    )
}
STRATEGY_NAMES = list(STRATEGIES)
