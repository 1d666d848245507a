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
``SegmentStage``        packed sparse-ViT segmentation (batched mode
                        groups frames by token count — bitwise identical)
``GazeRegressStage``    calibrated centroid -> gaze regression
``StatsCollectorStage`` per-frame workload statistics (Figs. 13/14 inputs)

Strategy graph (Fig. 12/15 harness, extracted from
``repro.api.tracker.evaluate_strategy``):

``EventifyPairStage``   digital frame-pair eventification
``StrategySampleStage`` one of the seven Fig. 15 sampling strategies
``SegmentOrReuseStage`` segmentation with SKIP-style reuse of the
                        previous map

Each stage has exactly one kernel, ``process_batch``, over a lockstep
rank of frames; a single frame is a rank of width 1.  Per-sequence random
streams are drawn row by row in rank order, and everything else stacks,
so every row is bitwise-independent of the rank's width (pinned by the
engine equivalence tests against the original monolithic loops and by
checked-in output digests).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.engine.context import FrameContext, SequenceState
from repro.engine.stage import Stage
from repro.gaze.estimation import pupil_centroid_batch
from repro.nn.functional import stack_rows
from repro.sampling.eventification import eventify
from repro.sampling.roi import ROIReusePolicy, box_iou, box_to_pixels, order_box

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
        # Per-sensor noise streams must be drawn from each sequence's own
        # generator (that's what makes every rank width bitwise-equal);
        # the pure comparator decision vectorizes across the rank.
        live: list[tuple[FrameContext, np.ndarray, np.ndarray, float]] = []
        for ctx, seq in zip(ctxs, seqs):
            inputs = seq.sensor.eventify_inputs(ctx.frame)
            if inputs is None:
                ctx.skipped = True  # bootstrap frame: nothing to difference yet
                continue
            live.append((ctx, *inputs, seq.sensor.sigma))
        if not live:
            return
        diffs = stack_rows([d for _, d, _, _ in live])
        noises = stack_rows([n for _, _, n, _ in live])
        sigmas = np.array([s for _, _, _, s in live])[:, None, None]
        events = type(seqs[0].sensor).comparator_decide(diffs, noises, sigmas)
        for i, (ctx, _, _, _) in enumerate(live):
            ctx.event_map = events[i]


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
        for ctx, box in zip(ctxs, boxes):
            box_norm = order_box(np.asarray(box))
            ctx.roi_box_norm = box_norm
            ctx.roi_box = box_to_pixels(box_norm, self.height, self.width)


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
        for ctx, seq in zip(ctxs, seqs):
            policy: ROIReusePolicy = seq.slots[self.name]
            if self.window > 1 and not policy.should_predict():
                box_norm = order_box(np.asarray(policy.current()))
                ctx.roi_box_norm = box_norm
                ctx.roi_box = box_to_pixels(box_norm, *ctx.frame.shape)
                ctx.roi_reused = True
                policy.tick()
            else:
                predict.append((ctx, seq))
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
        # Power-up bits must come from each sequence's own stream, but the
        # popcount reduction and threshold compare stack across the rank
        # (integer/boolean ops: exact under any batching).
        bits = stack_rows([seq.sensor.sram_rng.power_up_bits() for seq in seqs])
        pops = bits.sum(axis=-1)  # (B, num_pixels)
        for i, (ctx, seq) in enumerate(zip(ctxs, seqs)):
            ctx.sample_mask = seq.sensor.mask_from_popcounts(
                pops[i], ctx.roi_box
            )


class ReadoutStage(Stage):
    """ADC + sparse readout + RLE, then the host-side reconstruction."""

    name = "readout"

    def process_batch(self, ctxs, seqs) -> None:
        # The RLE round-trip is lossless by construction (tested), so the
        # host skips the per-token python scan: the sensor's readout step
        # provides vectorized run-length accounting and the sparse frame
        # is rebuilt from the codes it already holds — bitwise identical
        # to decoding the token stream (``BlissCamSensor.host_decode``).
        # The readout itself stays per-row (ADC state machine, per-sensor
        # levels); the host-side rebuild stacks: the int64->float64 cast
        # is exact and the divide/multiply are elementwise.
        code_rows = []
        for ctx, seq in zip(ctxs, seqs):
            codes, readout, stats = seq.sensor.readout_step(
                ctx.frame, ctx.sample_mask, ctx.roi_box
            )
            ctx.readout = readout
            ctx.rle_stats = stats
            code_rows.append(codes)
        codes = np.array(code_rows, dtype=np.float64)
        levels = np.array(
            [float(seq.sensor.adc.levels - 1) for seq in seqs]
        )[:, None, None]
        masks = stack_rows([ctx.sample_mask for ctx in ctxs])
        sparse_frames = (codes / levels) * masks
        for i, ctx in enumerate(ctxs):
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
