"""The joint-training kernels: frame pairs, sample streams, batched ranks.

Every other execution surface of this reproduction — evaluation, strategy
sweeps, serving — runs on the engine's batched-rank design: fixed-width
vectorized ranks, per-unit spawned RNG streams keyed by stable identity,
and fixed-order reductions, which together make a unit's results
independent of its rank and of sharding.  This module holds the
kernels that bring *training* onto the same design;
:class:`~repro.training.joint.JointTrainer` forms minibatches of
teacher-forced frame pairs and runs each as **one rank**
(:func:`_rank_backward`):

* ``eventify`` vectorized over the stacked ``(B, H, W)`` frame pairs;
* the ROI predictor's batched forward/backward (its conv trunk is the
  row-independent GEMM introduced in PR 2);
* :meth:`~repro.training.joint.SoftROIMask.forward_batch` /
  ``backward_batch`` over the ``(B, 4)`` predicted boxes;
* one ViT forward/backward per minibatch;
* per-sample RNG streams for the cue dropout / cue dilation draws and the
  Bernoulli sampling masks, keyed ``[seed, TRAIN_STREAM_TAG, epoch,
  seq_index, t]`` and drawn in fixed sample order — what a sample draws
  never depends on which rank it lands in.

Determinism contract (pinned by ``tests/training/``):

* ``batch_size=1`` reproduces the historical per-frame stepping bitwise
  (against a transcription of the retired loop under the per-sample
  stream semantics — the PR 1/2 convention for redefined streams);
* ``batch_size > 1`` is a **documented semantic change**: one Adam step
  per minibatch instead of per frame pair (``docs/training.md``).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.nn.functional import grey_dilation, grey_erosion
from repro.sampling.eventification import eventify
from repro.sampling.random_sampling import random_mask_in_box
from repro.sampling.roi import ROIPredictor, box_from_pixels, box_to_pixels

if TYPE_CHECKING:  # joint.py builds on this module
    from repro.training.joint import JointTrainConfig, SoftROIMask

__all__ = [
    "TRAIN_STREAM_TAG",
    "TrainSample",
    "collect_frame_pairs",
    "sample_stream",
]

#: Namespaces the training streams away from every other consumer of the
#: same base seed (the serving runtime uses the analogous
#: ``SERVE_STREAM_TAG``).
TRAIN_STREAM_TAG = zlib.crc32(b"repro.training")


def sample_stream(
    seed: int, epoch: int, seq_index: int, t: int
) -> np.random.Generator:
    """The RNG stream of one training sample in one epoch.

    Keyed by stable identity — never by execution order — so the draws
    are invariant to minibatch composition, rank width and shard
    placement.  Fixed draw order within the stream: (1) cue dropout,
    (2) cue dilation (probability, radius, direction), (3) the Bernoulli
    sampling mask.
    """
    return np.random.default_rng([seed, TRAIN_STREAM_TAG, epoch, seq_index, t])


@dataclass
class TrainSample:
    """One teacher-forced frame pair of the joint procedure."""

    seq_index: int
    t: int
    prev_frame: np.ndarray
    frame: np.ndarray
    prev_seg: np.ndarray | None
    target_seg: np.ndarray
    gt_box: tuple | None


def collect_frame_pairs(dataset, sequence_indices: Sequence[int]) -> list[TrainSample]:
    """All frame pairs of the given sequences, sequence-major and in
    time order within a sequence.

    Teacher forcing: the previous frame's ground-truth segmentation
    stands in for the host's fed-back map.
    """
    samples: list[TrainSample] = []
    for seq_index in sequence_indices:
        seq = dataset[seq_index]
        samples.extend(
            TrainSample(
                seq_index=seq_index,
                t=t,
                prev_frame=seq.frames[t - 1],
                frame=seq.frames[t],
                prev_seg=seq.segmentations[t - 1],
                target_seg=seq.segmentations[t],
                gt_box=seq.roi_boxes[t],
            )
            for t in range(1, len(seq.frames))
        )
    return samples


def _augmented_cue(
    sample: TrainSample, config: JointTrainConfig, rng: np.random.Generator
) -> np.ndarray | None:
    """Cue dropout / dilation augmentation for one sample.

    The draw order transcribes the retired per-frame loop exactly; the
    grey morphology is the numpy helper (:func:`repro.nn.functional.
    grey_dilation`).  Symmetric corruption makes the cue's *area*
    uninformative about the true box, forcing the predictor to take the
    extent from the event map and use the cue only for coarse
    localization.
    """
    prev_seg = sample.prev_seg
    if config.cue_dropout and rng.random() < config.cue_dropout:
        return None
    if (
        prev_seg is not None
        and config.cue_dilate_prob
        and rng.random() < config.cue_dilate_prob
    ):
        radius = int(rng.integers(1, config.cue_dilate_max_px + 1))
        size = 2 * radius + 1
        if rng.random() < 0.5:
            return grey_dilation(prev_seg, size)
        return grey_erosion(prev_seg, size)
    return prev_seg


def _rank_backward(
    roi_predictor,
    segmenter,
    config: JointTrainConfig,
    seed: int,
    epoch: int,
    batch: list[TrainSample],
    seg_loss,
    roi_loss,
    soft_mask: SoftROIMask,
) -> tuple[float, float]:
    """One minibatch through the joint pipeline as a single rank.

    Accumulates the minibatch's parameter gradients of both networks on
    top of the existing ones (callers zero them first when they want
    fresh ones) and returns ``(seg_loss, roi_loss)`` — the minibatch-mean
    segmentation cross entropy and the mean ROI regression error over
    the box-supervised samples (0.0 when none are).

    The op sequence transcribes the retired ``_train_step`` with the
    batch axis stacked; at ``B=1`` every kernel is bitwise-identical to
    the per-frame loop (the parity test pins this end to end).
    """
    height, width = batch[0].frame.shape
    prev_frames = np.stack([s.prev_frame for s in batch])
    frames = np.stack([s.frame for s in batch])
    targets = np.stack([s.target_seg for s in batch])

    # -- in-sensor stages: vectorized eventification + per-sample cues ----
    event_maps = eventify(prev_frames, frames)  # (B, H, W), elementwise
    streams = [
        sample_stream(seed, epoch, s.seq_index, s.t) for s in batch
    ]
    cues = [
        _augmented_cue(sample, config, rng)
        for sample, rng in zip(batch, streams)
    ]
    roi_in = ROIPredictor.make_input(event_maps, cues)
    box_pred = roi_predictor(roi_in)  # (B, 4), sigmoid-activated

    # ROI regression loss against the ground-truth foreground boxes.
    # Blink frames (no GT box) get zero weight: no box supervision, zero
    # gradient, zero reported loss — as in the per-frame loop.
    gt_norm = np.zeros_like(box_pred)
    supervised = np.zeros((len(batch), 1))
    for i, sample in enumerate(batch):
        if sample.gt_box is not None:
            gt_norm[i] = box_from_pixels(sample.gt_box, height, width)
            supervised[i, 0] = 1.0
    roi_loss_val = roi_loss.forward(box_pred, gt_norm, mask=supervised)
    grad_box_mse = roi_loss.backward()

    # Hard sampling for the forward pass (what the sensor actually does),
    # drawn per sample from its own stream, in fixed sample order.
    bern = np.empty((len(batch), height, width), dtype=bool)
    for i, rng in enumerate(streams):
        pixel_box = box_to_pixels(box_pred[i], height, width)
        bern[i] = random_mask_in_box(
            (height, width), pixel_box, config.roi_sampling_rate, rng
        )

    # Soft relaxation for the backward path through sampling: one batched
    # mask rank over the (B, 4) boxes.
    soft = soft_mask.forward_batch(box_pred)
    eff_mask = bern * soft
    sparse = frames * eff_mask

    # -- off-sensor segmentation: one ViT forward/backward per rank -------
    logits = segmenter(sparse, eff_mask)
    seg_loss_val = seg_loss.forward(logits, targets)
    grad_logits = seg_loss.backward()

    grad_pix, grad_bit = segmenter.backward_to_input(grad_logits)

    # Chain rule into the soft mask, gradient-masked to sampled pixels
    # (the paper's explicit masking rule): bern zeroes unsampled pixels.
    grad_soft = (grad_pix * frames + grad_bit) * bern
    grad_box_seg = soft_mask.backward_batch(grad_soft)

    total_grad_box = grad_box_mse + config.seg_to_roi_weight * grad_box_seg
    roi_predictor.backward(total_grad_box)
    return seg_loss_val, float(roi_loss_val)
