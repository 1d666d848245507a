"""Concrete stages: the BlissCam frame dataflow, one paper stage per class.

Tracking graph (Sec. III/IV, extracted from the old monolithic
``BlissCamPipeline.evaluate`` loop):

``EventifyStage``       analog eventification against the AZ-held frame
``ROIPredictStage``     in-sensor ROI DNN (margin-expanded box)
``ROIReuseStage``       Table-I reuse policy as a first-class wrapper —
                        replaces the old predictor monkeypatch
``SampleStage``         SRAM power-up RNG sampling inside the ROI
``ReadoutStage``        If-Skip ADC + column-major sparse readout + RLE,
                        then the host-side decode
``SegmentStage``        packed sparse-ViT segmentation (one slab of the
                        rank's valid tokens — bitwise identical per frame)
``GazeRegressStage``    calibrated centroid -> gaze regression
``StatsCollectorStage`` per-frame workload statistics (Figs. 13/14 inputs)

Strategy graph (Fig. 12/15 harness, extracted from
``repro.api.tracker.evaluate_strategy``):

``EventifyPairStage``   digital frame-pair eventification
``StrategySampleStage`` one of the seven Fig. 15 sampling strategies
``SegmentOrReuseStage`` segmentation with SKIP-style reuse of the
                        previous map

Each stage has exactly one kernel, ``process_batch``, over a lockstep
rank of frames; a single frame is a rank of width 1.  Only the
per-sequence keyed random draws run row by row, in rank order; the four
sensor stages are rank kernels of :class:`BlissCamSensor` (one stacked
op per step: comparator decision, popcount and threshold, ADC, ROI
gather, RLE accounting, host rebuild) and box ordering, pixel conversion
and margin expansion are ``(B, 4)`` array ops.  So every row is
bitwise-independent of the rank's width (pinned by the engine
equivalence tests against the original monolithic loops, by
``tests/hardware/test_sensor_rank.py`` against the retired per-row forms
and by checked-in output digests).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.engine.context import FrameContext, SequenceState
from repro.engine.stage import Stage
from repro.gaze.estimation import pupil_centroid_batch
from repro.nn.functional import stack_rows
from repro.sampling.eventification import eventify
from repro.sampling.roi import ROIReusePolicy, box_iou, boxes_to_pixels, order_box

__all__ = [
    "EventifyStage",
    "ROIPredictStage",
    "ROIReuseStage",
    "SampleStage",
    "ReadoutStage",
    "SegmentStage",
    "GazeRegressStage",
    "StatsCollectorStage",
    "EventifyPairStage",
    "StrategySampleStage",
    "SegmentOrReuseStage",
]


# -- tracking stages ---------------------------------------------------------


class EventifyStage(Stage):
    """Analog eventification via the per-sequence sensor's held frame."""

    name = "eventify"

    def process_batch(self, ctxs, seqs) -> None:
        # Noise comes from each sequence's own generator, in rank order
        # (what makes every rank width bitwise-equal); the rest stacks.
        sensors = [seq.sensor for seq in seqs]
        events = type(sensors[0]).eventify_rank(
            sensors, [ctx.frame for ctx in ctxs]
        )
        for ctx, event_map in zip(ctxs, events):
            ctx.event_map = event_map
            ctx.skipped = event_map is None  # bootstrap: nothing to difference


def _place_boxes(ctxs, boxes, height: int, width: int) -> None:
    """Order a rank's ``(B, 4)`` normalized boxes and convert them to pixel
    boxes, refusing a non-finite box by sequence and frame."""
    boxes = order_box(boxes)
    bad = ~np.isfinite(boxes).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"non-finite ROI box {boxes[i].tolist()} for sequence "
            f"{ctxs[i].seq_index} at frame t={ctxs[i].t}"
        )
    pixels = boxes_to_pixels(boxes, height, width).astype(np.int64).tolist()
    for ctx, box, pixel_box in zip(ctxs, boxes, pixels):
        ctx.roi_box_norm = box
        ctx.roi_box = tuple(pixel_box)


class ROIPredictStage(Stage):
    """The in-sensor ROI DNN mapping (events, previous seg) -> pixel box."""

    name = "roi_predict"

    def __init__(
        self,
        predictor: Callable[[np.ndarray, np.ndarray | None], np.ndarray],
        height: int,
        width: int,
    ):
        self.predictor = predictor
        self.height = height
        self.width = width

    def process_batch(self, ctxs, seqs) -> None:
        # Predictors exposing ``predict_batch`` guarantee row-independent
        # forwards (the conv is a per-sample GEMM, the FC tail runs
        # per-row), so stacking the rank cannot change any row.  Plain
        # ``(event_map, prev_seg) -> box`` callables are called per row.
        event_maps = [ctx.event_map for ctx in ctxs]
        prev_segs = [seq.prev_seg_pred for seq in seqs]
        batch = getattr(self.predictor, "predict_batch", None)
        if batch is None:
            boxes = [self.predictor(e, p) for e, p in zip(event_maps, prev_segs)]
        else:
            boxes = batch(event_maps, prev_segs)
        _place_boxes(ctxs, np.asarray(boxes), self.height, self.width)


class ROIReuseStage(Stage):
    """Table-I ROI reuse as a wrapper around any ROI-producing stage.

    Replaces the old hack of temporarily monkeypatching
    ``sensor.roi_predictor`` with a lambda pinning the cached box (which
    also leaked the pinned predictor if ``capture`` raised).  With
    ``window == 1`` the policy predicts every frame — the paper's default.
    """

    name = "roi"

    def __init__(self, inner: Stage, window: int = 1):
        if window < 1:
            raise ValueError(f"reuse window must be >= 1: {window}")
        self.inner = inner
        self.window = window

    def start_sequence(self, seq: SequenceState) -> None:
        self.inner.start_sequence(seq)
        seq.slots[self.name] = ROIReusePolicy(window=self.window)

    def process_batch(self, ctxs, seqs) -> None:
        # Split the rank: lanes whose policy holds a cached box reuse it,
        # the rest go to the inner stage as one sub-rank (its rows are
        # independent, so the split cannot change them).
        predict: list[tuple[FrameContext, SequenceState]] = []
        reused: list[FrameContext] = []
        for ctx, seq in zip(ctxs, seqs):
            policy: ROIReusePolicy = seq.slots[self.name]
            if self.window > 1 and not policy.should_predict():
                reused.append(ctx)
                ctx.roi_box_norm = policy.current()
                ctx.roi_reused = True
                policy.tick()
            else:
                predict.append((ctx, seq))
        if reused:
            boxes = np.array([ctx.roi_box_norm for ctx in reused])
            _place_boxes(reused, boxes, *reused[0].frame.shape)
        if not predict:
            return
        self.inner.process_batch(
            [ctx for ctx, _ in predict], [seq for _, seq in predict]
        )
        for ctx, seq in predict:
            seq.slots[self.name].update(ctx.roi_box_norm)


class SampleStage(Stage):
    """SRAM power-up RNG sampling decisions restricted to the ROI."""

    name = "sample"

    def process_batch(self, ctxs, seqs) -> None:
        # Power-up bits come from each sequence's own stream, in rank
        # order; popcount, threshold and ROI mask run once for the rank,
        # and the ROI masks stay on the frames for the readout.
        sensors = [seq.sensor for seq in seqs]
        masks, roi_masks = type(sensors[0]).sample_rank(
            sensors, np.array([ctx.roi_box for ctx in ctxs])
        )
        for ctx, mask, roi_mask in zip(ctxs, masks, roi_masks):
            ctx.sample_mask = mask
            ctx.roi_mask = roi_mask


class ReadoutStage(Stage):
    """ADC + sparse readout + RLE, then the host-side reconstruction."""

    name = "readout"

    def process_batch(self, ctxs, seqs) -> None:
        # One rank kernel: ROI gather, ADC, RLE accounting and the host's
        # rebuild of the sparse frames, bitwise equal to decoding each
        # token stream (``BlissCamSensor.host_decode``).
        sensors = [seq.sensor for seq in seqs]
        masks = np.array([ctx.sample_mask for ctx in ctxs])
        sparse_frames, readouts, rle_stats = type(sensors[0]).readout_rank(
            sensors,
            np.array([ctx.frame for ctx in ctxs]),
            masks,
            np.array([ctx.roi_box for ctx in ctxs]),
            np.array([ctx.roi_mask for ctx in ctxs]),
        )
        for i, ctx in enumerate(ctxs):
            ctx.readout = readouts[i]
            ctx.rle_stats = rle_stats[i]
            ctx.sparse_frame = sparse_frames[i]
            ctx.mask = masks[i]


class SegmentStage(Stage):
    """Packed sparse-ViT segmentation; feeds the ROI predictor back."""

    name = "segment"

    def __init__(self, segmenter):
        self.segmenter = segmenter

    def process_batch(self, ctxs, seqs) -> None:
        frames = stack_rows([c.sparse_frame for c in ctxs])
        masks = stack_rows([c.mask for c in ctxs])
        segs = self.segmenter.predict_packed_batch(frames, masks)
        for i, (ctx, seq) in enumerate(zip(ctxs, seqs)):
            ctx.seg_pred = segs[i]
            seq.prev_seg_pred = segs[i]


class GazeRegressStage(Stage):
    """Calibrated gaze regression on the predicted segmentation map.

    The estimator keeps a last-prediction fallback for frames where the
    pupil is occluded; the fallback is tracked per sequence, so it never
    crosses sequence boundaries and results do not depend on the rank
    width or the sharding.
    """

    name = "gaze"

    def __init__(self, estimator):
        self.estimator = estimator

    def start_sequence(self, seq: SequenceState) -> None:
        seq.slots[self.name] = self.estimator.INITIAL_FALLBACK

    def process_batch(self, ctxs, seqs) -> None:
        # The O(B*H*W) centroid extraction stacks across the rank
        # (integer index sums — exact, see pupil_centroid_batch); the
        # tiny per-row regression tail runs in rank order, threading each
        # sequence's fallback slot through the shared estimator.
        est = self.estimator
        centroids = pupil_centroid_batch(
            stack_rows([ctx.seg_pred for ctx in ctxs])
        )
        for ctx, seq, centroid in zip(ctxs, seqs, centroids):
            est.fallback_state = seq.slots[self.name]
            ctx.gaze_pred = est.predict_from_centroid(centroid)
            seq.slots[self.name] = est.fallback_state


class StatsCollectorStage(Stage):
    """Per-frame workload statistics parameterizing the hardware models."""

    name = "stats"

    def __init__(self, tokens_total: int, patch: int):
        self.tokens_total = tokens_total
        self.patch = patch

    def process_batch(self, ctxs, seqs) -> None:
        p = self.patch
        masks = stack_rows([c.mask for c in ctxs])
        b, h, w = masks.shape
        token_mask = masks.reshape(b, h // p, p, w // p, p).any(axis=(2, 4))
        for ctx, count in zip(ctxs, token_mask.sum(axis=(1, 2))):
            n = ctx.sparse_frame.size
            r0, c0, r1, c1 = ctx.roi_box
            ctx.stats = {
                "roi_fraction": (r1 - r0) * (c1 - c0) / n,
                "sampled_fraction": ctx.readout.converted_pixels / n,
                "token_fraction": int(count) / self.tokens_total,
                "tx_bytes": ctx.rle_stats.encoded_bytes,
                "rle_ratio": ctx.rle_stats.compression_ratio,
                "roi_iou": (
                    box_iou(ctx.roi_box, ctx.gt_box)
                    if ctx.gt_box is not None
                    else None
                ),
            }


# -- strategy-harness stages -------------------------------------------------


class EventifyPairStage(Stage):
    """Digital eventification of consecutive dataset frames."""

    name = "eventify"

    def process_batch(self, ctxs, seqs) -> None:
        # eventify is purely elementwise, so one stacked call over the
        # rows that have a frame pair is bitwise row-equal; rows at
        # t = 0 mark themselves skipped.
        live: list[FrameContext] = []
        for ctx in ctxs:
            if ctx.prev_frame is None:
                ctx.skipped = True  # no pair at t = 0
            else:
                live.append(ctx)
        if not live:
            return
        prevs = stack_rows([ctx.prev_frame for ctx in live])
        frames = stack_rows([ctx.frame for ctx in live])
        events = eventify(prevs, frames)
        for i, ctx in enumerate(live):
            ctx.event_map = events[i]


class StrategySampleStage(Stage):
    """Apply one Fig. 15 sampling strategy to the eventified frame.

    The stage holds a *template* strategy plus a base seed; every
    sequence gets its own ``strategy.spawn([seed, seq_index])`` — a clone
    with fresh per-sequence adaptive state and an RNG stream keyed by
    sequence index (mirroring the sensor's spawn design).  Keying by
    index rather than execution order is what makes every rank width and
    sharded runs draw identical randomness.
    """

    name = "strategy_sample"

    def __init__(self, strategy, seed: int, use_gt_roi: bool = True):
        self.strategy = strategy
        self.seed = seed
        self.use_gt_roi = use_gt_roi

    def start_sequence(self, seq: SequenceState) -> None:
        seq.slots[self.name] = self.strategy.spawn([self.seed, seq.seq_index])

    def process_batch(self, ctxs, seqs) -> None:
        # One template-level sample_batch call: the per-strategy kernels
        # vectorize the mask/sparse-frame math while drawing per-row
        # from each spawn's own stream in rank order.
        strategies = [seq.slots[self.name] for seq in seqs]
        frames = [ctx.frame for ctx in ctxs]
        event_maps = [ctx.event_map for ctx in ctxs]
        roi_boxes = [ctx.gt_box if self.use_gt_roi else None for ctx in ctxs]
        decisions = self.strategy.sample_batch(
            strategies, frames, event_maps, roi_boxes, [s.rng for s in strategies]
        )
        for ctx, decision in zip(ctxs, decisions):
            ctx.mask = decision.mask
            ctx.sparse_frame = decision.sparse_frame
            ctx.roi_box = decision.roi_box
            ctx.reuse_previous = decision.reuse_previous
            ctx.stats["compression"] = decision.compression


class SegmentOrReuseStage(Stage):
    """Segmentation with SKIP-style reuse of the previous predicted map."""

    name = "segment"

    def __init__(self, segmenter):
        self.segmenter = segmenter

    def process_batch(self, ctxs, seqs) -> None:
        # Split the rank: reuse rows copy their sequence's previous map,
        # compute rows run one stacked *dense* forward (the harness
        # measures the dense segmenter, not the packed ViT path) —
        # row-independent for the ViT (fixed token grid) and for the
        # conv nets in eval mode.  A conv net still in training mode
        # (batch norm couples rows through batch statistics) runs its
        # compute rows as ranks of width 1.
        compute: list[tuple[FrameContext, SequenceState]] = []
        for ctx, seq in zip(ctxs, seqs):
            if ctx.reuse_previous and seq.prev_seg_pred is not None:
                ctx.seg_pred = seq.prev_seg_pred
                ctx.seg_reused = True
                seq.prev_seg_pred = ctx.seg_pred
            else:
                compute.append((ctx, seq))
        if not compute:
            return
        frames = stack_rows([ctx.sparse_frame for ctx, _ in compute])
        masks = stack_rows([ctx.mask for ctx, _ in compute])
        seg = self.segmenter
        if seg.predict_batch_requires_eval and seg.training:
            segs = [seg.predict(f, m) for f, m in zip(frames, masks)]
        else:
            segs = seg.predict_batch(frames, masks)
        for i, (ctx, seq) in enumerate(compute):
            ctx.seg_pred = segs[i]
            seq.prev_seg_pred = segs[i]
