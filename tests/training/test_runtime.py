"""Pins for the batched training runtime.

* ``batch_size=1`` reproduces the retired per-frame stepping **bitwise**
  — against a transcription of the historical ``JointTrainer._train_step``
  loop under the runtime's per-sample stream semantics (the PR 1/2
  convention for deliberately redefined RNG streams);
* the deterministic sub-kernels (vectorized eventification, the batched
  soft ROI mask) are bitwise batch-invariant; the soft mask is compared
  with the retired one-box forms (:class:`ScalarSoftROIMask`).
"""

import numpy as np
import pytest

from repro.nn import Adam, CrossEntropyLoss, MSELoss
from repro.nn.functional import grey_dilation, grey_erosion
from repro.sampling import ROIPredictor
from repro.sampling.eventification import eventify
from repro.sampling.random_sampling import random_mask_in_box
from repro.sampling.roi import box_from_pixels, box_to_pixels
from repro.segmentation import ViTConfig, ViTSegmenter
from repro.synth import DatasetConfig, SyntheticEyeDataset
from repro.training import (
    JointTrainConfig,
    JointTrainer,
    SoftROIMask,
    sample_stream,
)

SIZE = 32
SEED_RNG = 42


def tiny_components():
    rng = np.random.default_rng(1)
    roi = ROIPredictor(SIZE, SIZE, rng, base_channels=2)
    vit = ViTSegmenter(
        ViTConfig(height=SIZE, width=SIZE, patch=8, dim=24, heads=3,
                  depth=1, decoder_depth=1),
        rng,
    )
    return roi, vit


def tiny_dataset(num_sequences=2, frames=5):
    return SyntheticEyeDataset(
        DatasetConfig(
            height=SIZE,
            width=SIZE,
            frames_per_sequence=frames,
            num_sequences=num_sequences,
        )
    )


class ScalarSoftROIMask(SoftROIMask):
    """The retired one-box ``SoftROIMask.forward``/``backward`` bodies:
    ``np.outer`` masks and plain vector reductions, which the ``(B, 4)``
    kernels reproduce bitwise row by row."""

    def forward(self, box):
        r0, c0, r1, c1 = box
        tau = self.tau
        self._sr0 = self._sigmoid((self._rows - r0) / tau)
        self._sr1 = self._sigmoid((r1 - self._rows) / tau)
        self._sc0 = self._sigmoid((self._cols - c0) / tau)
        self._sc1 = self._sigmoid((c1 - self._cols) / tau)
        self._row_term = self._sr0 * self._sr1  # (H,)
        self._col_term = self._sc0 * self._sc1  # (W,)
        return np.outer(self._row_term, self._col_term)

    def backward(self, grad_mask):
        tau = self.tau
        d_sr0 = -self._sr0 * (1 - self._sr0) / tau  # d/d r0
        d_sr1 = self._sr1 * (1 - self._sr1) / tau  # d/d r1
        d_sc0 = -self._sc0 * (1 - self._sc0) / tau  # d/d c0
        d_sc1 = self._sc1 * (1 - self._sc1) / tau  # d/d c1
        row_dot = grad_mask @ self._col_term  # (H,)
        col_dot = grad_mask.T @ self._row_term  # (W,)
        return np.array(
            [
                float(np.sum(row_dot * d_sr0 * self._sr1)),
                float(np.sum(col_dot * d_sc0 * self._sc1)),
                float(np.sum(row_dot * d_sr1 * self._sr0)),
                float(np.sum(col_dot * d_sc1 * self._sc0)),
            ]
        )


def clip_grad_norm(params, max_norm):
    """The retired per-parameter gradient clip (``Optimizer.clip_grad_norm``
    reproduces its bits over the flat arena)."""
    total = np.sqrt(sum(float(np.sum(p.grad**2)) for p in params))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


def reference_joint_train(roi, vit, cfg, dataset, indices, seed):
    """Transcription of the retired per-frame ``_train_step`` loop.

    Identical to the pre-runtime ``JointTrainer`` except for the stream
    semantics the runtime defines: each (epoch, sequence, frame) sample
    draws from its own :func:`sample_stream` instead of one serial
    generator, and the cue morphology is the numpy helper.  Everything
    else — scalar kernels, per-frame Adam steps, loss accounting — is
    the historical loop verbatim.
    """
    seg_loss = CrossEntropyLoss()
    roi_loss = MSELoss()
    opt_seg = Adam(vit.parameters(), lr=cfg.lr_segmenter)
    opt_roi = Adam(roi.parameters(), lr=cfg.lr_roi)
    soft_mask = ScalarSoftROIMask(SIZE, SIZE, tau=cfg.tau)
    seg_losses, roi_losses = [], []
    vit.train()
    roi.train()
    for epoch in range(cfg.epochs):
        seg_total, roi_total, steps = 0.0, 0.0, 0
        for seq_index in indices:
            seq = dataset[seq_index]
            for t in range(1, len(seq)):
                prev_frame = seq.frames[t - 1]
                frame = seq.frames[t]
                prev_seg = seq.segmentations[t - 1]
                target_seg = seq.segmentations[t]
                gt_box = seq.roi_boxes[t]
                height, width = frame.shape

                rng = sample_stream(seed, epoch, seq_index, t)
                event_map = eventify(prev_frame, frame)
                if cfg.cue_dropout and rng.random() < cfg.cue_dropout:
                    prev_seg = None
                elif (
                    prev_seg is not None
                    and cfg.cue_dilate_prob
                    and rng.random() < cfg.cue_dilate_prob
                ):
                    radius = int(rng.integers(1, cfg.cue_dilate_max_px + 1))
                    size = 2 * radius + 1
                    if rng.random() < 0.5:
                        prev_seg = grey_dilation(prev_seg, size)
                    else:
                        prev_seg = grey_erosion(prev_seg, size)
                roi_in = ROIPredictor.make_input(event_map, prev_seg)
                box_pred = roi(roi_in)

                if gt_box is not None:
                    gt_norm = box_from_pixels(gt_box, height, width)[None]
                    roi_loss_val = roi_loss.forward(box_pred, gt_norm)
                    grad_box_mse = roi_loss.backward()
                else:
                    roi_loss_val = 0.0
                    grad_box_mse = np.zeros_like(box_pred)

                pixel_box = box_to_pixels(box_pred[0], height, width)
                bern = random_mask_in_box(
                    frame.shape, pixel_box, cfg.roi_sampling_rate, rng
                )
                soft = soft_mask.forward(box_pred[0])
                eff_mask = bern * soft
                sparse = frame * eff_mask

                logits = vit(sparse[None], eff_mask[None])
                seg_loss_val = seg_loss.forward(logits, target_seg[None])
                grad_logits = seg_loss.backward()
                vit.zero_grad()
                grad_pix, grad_bit = vit.backward_to_input(grad_logits)
                grad_soft = (grad_pix[0] * frame + grad_bit[0]) * bern
                grad_box_seg = soft_mask.backward(grad_soft)

                total_grad_box = (
                    grad_box_mse + cfg.seg_to_roi_weight * grad_box_seg[None]
                )
                roi.zero_grad()
                roi.backward(total_grad_box)
                clip_grad_norm(roi.parameters(), cfg.grad_clip)
                clip_grad_norm(vit.parameters(), cfg.grad_clip)
                opt_roi.step()
                opt_seg.step()
                seg_total += seg_loss_val
                roi_total += float(roi_loss_val)
                steps += 1
        seg_losses.append(seg_total / max(steps, 1))
        roi_losses.append(roi_total / max(steps, 1))
    vit.eval()
    roi.eval()
    return seg_losses, roi_losses


def assert_states_equal(a, b):
    assert set(a) == set(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), name


class TestBatchOnePinsLegacyLoop:
    def test_bitwise_parity_with_per_frame_transcription(self):
        dataset = tiny_dataset()
        cfg = JointTrainConfig(epochs=2, batch_size=1)

        ref_roi, ref_vit = tiny_components()
        seed = int(np.random.default_rng(SEED_RNG).integers(2**63 - 1))
        ref_seg, ref_roi_losses = reference_joint_train(
            ref_roi, ref_vit, cfg, dataset, [0, 1], seed
        )

        roi, vit = tiny_components()
        trainer = JointTrainer(
            roi, vit, cfg, np.random.default_rng(SEED_RNG)
        )
        result = trainer.train(dataset, [0, 1])

        assert result.seg_losses == ref_seg
        assert result.roi_losses == ref_roi_losses
        assert_states_equal(roi.state_dict(), ref_roi.state_dict())
        assert_states_equal(vit.state_dict(), ref_vit.state_dict())

    def test_blink_frames_contribute_zero_roi_loss(self):
        dataset = tiny_dataset(num_sequences=1)
        seq = dataset[0]
        for t in range(len(seq)):
            seq.roi_boxes[t] = None  # fully occluded sequence
        roi, vit = tiny_components()
        trainer = JointTrainer(
            roi, vit, JointTrainConfig(epochs=1), np.random.default_rng(3)
        )
        result = trainer.train(dataset, [0])
        assert result.roi_losses == [0.0]


class TestSubKernelBatchInvariance:
    def test_eventify_is_batch_invariant(self):
        rng = np.random.default_rng(0)
        prevs = rng.random((5, SIZE, SIZE))
        frames = rng.random((5, SIZE, SIZE))
        stacked = eventify(prevs, frames)
        for i in range(5):
            assert np.array_equal(stacked[i], eventify(prevs[i], frames[i]))

    def test_soft_mask_forward_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        boxes = np.sort(rng.random((4, 4)), axis=-1)
        soft = SoftROIMask(SIZE, SIZE, tau=0.05)
        stacked = soft.forward_batch(boxes)
        for i in range(4):
            scalar = ScalarSoftROIMask(SIZE, SIZE, tau=0.05)
            reference = scalar.forward(boxes[i])
            assert np.array_equal(stacked[i], reference)
            assert np.array_equal(soft.forward(boxes[i]), reference)

    def test_soft_mask_backward_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        boxes = np.sort(rng.random((3, 4)), axis=-1)
        grads = rng.standard_normal((3, SIZE, SIZE))
        soft = SoftROIMask(SIZE, SIZE, tau=0.05)
        soft.forward_batch(boxes)
        stacked = soft.backward_batch(grads)
        for i in range(3):
            scalar = ScalarSoftROIMask(SIZE, SIZE, tau=0.05)
            scalar.forward(boxes[i])
            reference = scalar.backward(grads[i])
            assert np.array_equal(stacked[i], reference)
            one = SoftROIMask(SIZE, SIZE, tau=0.05)
            one.forward(boxes[i])
            assert np.array_equal(one.backward(grads[i]), reference)


class TestBatchedSchedule:
    def test_minibatched_training_runs_and_improves(self):
        dataset = tiny_dataset(num_sequences=2, frames=6)
        roi, vit = tiny_components()
        trainer = JointTrainer(
            roi, vit, JointTrainConfig(epochs=4, batch_size=4),
            np.random.default_rng(SEED_RNG),
        )
        result = trainer.train(dataset, [0, 1])
        assert len(result.seg_losses) == 4
        assert all(np.isfinite(result.seg_losses))
        assert result.seg_losses[-1] < result.seg_losses[0]

    def test_batch_size_above_one_is_a_semantic_change(self):
        # One Adam step per minibatch: documented as *different* from the
        # per-frame loop, not a silent drift the parity suite missed.
        dataset = tiny_dataset()

        def train(batch_size):
            roi, vit = tiny_components()
            JointTrainer(
                roi, vit,
                JointTrainConfig(epochs=1, batch_size=batch_size),
                np.random.default_rng(SEED_RNG),
            ).train(dataset, [0, 1])
            return roi.state_dict()

        a = train(1)
        b = train(4)
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    def test_empty_input_never_steps_a_warm_optimizer(self):
        # Regression: with no frame pairs no Adam step is taken — a warm
        # optimizer would move the weights on pure momentum, which the
        # retired per-frame loop never did for empty input.
        dataset = tiny_dataset(num_sequences=2, frames=4)
        roi, vit = tiny_components()
        cfg = JointTrainConfig(epochs=2)
        trainer = JointTrainer(roi, vit, cfg, np.random.default_rng(0))
        trainer.train(dataset, [0, 1])  # warm the Adam moments
        before_roi = roi.state_dict()
        before_vit = vit.state_dict()
        result = trainer.train(dataset, [])
        assert result.seg_losses == [0.0, 0.0]
        assert result.roi_losses == [0.0, 0.0]
        assert_states_equal(roi.state_dict(), before_roi)
        assert_states_equal(vit.state_dict(), before_vit)


class TestFrameGeometry:
    def test_frame_network_size_mismatch_is_refused_by_name(self):
        # 32x32 frames into 64x64 networks: refused up front with both
        # shapes named, not deep in the ROI conv's matmul, and before
        # any epoch touches the weights or the trainer's RNG.
        rng = np.random.default_rng(1)
        roi = ROIPredictor(64, 64, rng, base_channels=2)
        vit = ViTSegmenter(
            ViTConfig(height=64, width=64, patch=8, dim=24, heads=3,
                      depth=1, decoder_depth=1),
            rng,
        )
        before = roi.state_dict()
        trainer_rng = np.random.default_rng(0)
        trainer = JointTrainer(
            roi, vit, JointTrainConfig(epochs=1), trainer_rng
        )
        with pytest.raises(ValueError, match="32x32 frames.*64x64"):
            trainer.train(tiny_dataset(), [0, 1])
        assert_states_equal(roi.state_dict(), before)
        assert trainer_rng.bit_generator.state == (
            np.random.default_rng(0).bit_generator.state
        )
