"""Tests for the training loops, including the joint procedure."""

import numpy as np
import pytest

from repro.api.tracker import ci
from repro.sampling import ROIPredictor
from repro.segmentation import ViTConfig, ViTSegmenter
from repro.synth import DatasetConfig, SyntheticEyeDataset
from repro.training import joint
from repro.training import (
    JointTrainConfig,
    JointTrainer,
    SoftROIMask,
    batched,
    train_segmentation,
)

RNG = np.random.default_rng(0)


def tiny_components(size=32):
    rng = np.random.default_rng(1)
    roi = ROIPredictor(size, size, rng, base_channels=2)
    vit = ViTSegmenter(
        ViTConfig(height=size, width=size, patch=8, dim=24, heads=3,
                  depth=1, decoder_depth=1),
        rng,
    )
    return roi, vit


class TestSoftROIMask:
    def test_mask_high_inside_low_outside(self):
        soft = SoftROIMask(32, 32, tau=0.02)
        mask = soft.forward(np.array([0.25, 0.25, 0.75, 0.75]))
        assert mask[16, 16] > 0.9
        assert mask[0, 0] < 0.1

    def test_gradient_matches_numeric(self):
        soft = SoftROIMask(16, 16, tau=0.08)
        box = np.array([0.3, 0.2, 0.7, 0.8])
        upstream = np.random.default_rng(2).standard_normal((16, 16))
        soft.forward(box)
        analytic = soft.backward(upstream)
        eps = 1e-6
        for i in range(4):
            plus, minus = box.copy(), box.copy()
            plus[i] += eps
            minus[i] -= eps
            numeric = (
                np.sum(soft.forward(plus) * upstream)
                - np.sum(soft.forward(minus) * upstream)
            ) / (2 * eps)
            assert analytic[i] == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            SoftROIMask(8, 8, tau=0.0)


class TestTrainSegmentation:
    def _samples(self, n=6, size=32):
        rng = np.random.default_rng(3)
        return [
            (
                rng.random((size, size)),
                rng.random((size, size)) < 0.3,
                rng.integers(0, 4, size=(size, size)),
            )
            for _ in range(n)
        ]

    def test_loss_decreases(self):
        _, vit = tiny_components()
        result = train_segmentation(
            vit, self._samples(), epochs=3, rng=np.random.default_rng(4)
        )
        assert result.improved
        assert len(result.epoch_losses) == 3

    def test_supervise_sampled_only(self):
        _, vit = tiny_components()
        result = train_segmentation(
            vit,
            self._samples(),
            epochs=2,
            rng=np.random.default_rng(5),
            supervise_sampled_only=True,
        )
        assert len(result.epoch_losses) == 2

    def test_rejects_empty_samples(self):
        _, vit = tiny_components()
        with pytest.raises(ValueError):
            train_segmentation(vit, [], epochs=1, rng=RNG)

    def test_rejects_zero_epochs(self):
        _, vit = tiny_components()
        with pytest.raises(ValueError):
            train_segmentation(vit, self._samples(2), epochs=0, rng=RNG)

    def test_batched(self):
        chunks = list(batched([1, 2, 3, 4, 5], 2))
        assert chunks == [[1, 2], [3, 4], [5]]
        with pytest.raises(ValueError):
            list(batched([1], 0))

    def test_model_left_in_eval_mode(self):
        _, vit = tiny_components()
        train_segmentation(vit, self._samples(2), epochs=1, rng=RNG)
        assert not vit.training


class TestJointTrainer:
    def test_both_losses_decrease(self):
        roi, vit = tiny_components()
        ds = SyntheticEyeDataset(
            DatasetConfig(height=32, width=32, frames_per_sequence=6, num_sequences=2)
        )
        trainer = JointTrainer(
            roi, vit, JointTrainConfig(epochs=4), np.random.default_rng(6)
        )
        result = trainer.train(ds, [0, 1])
        assert result.improved
        assert result.roi_losses[-1] < result.roi_losses[0]

    def test_gradients_reach_roi_predictor_through_sampling(
        self, monkeypatch
    ):
        """With ROI-loss weight zero, only the seg loss can move the ROI net
        — verifying the approximate differentiability path of Sec. III-C."""
        roi, vit = tiny_components()
        # Bias the (untrained) predictor toward a large box so the random
        # sampler actually selects pixels; a fresh net outputs a ~2px box
        # whose masked gradient is legitimately zero.
        roi.fc2.bias.data[:] = np.log(
            np.array([0.1, 0.1, 0.9, 0.9]) / (1 - np.array([0.1, 0.1, 0.9, 0.9]))
        )
        ds = SyntheticEyeDataset(
            DatasetConfig(height=32, width=32, frames_per_sequence=4, num_sequences=1)
        )
        trainer = JointTrainer(
            roi, vit, JointTrainConfig(epochs=1, seg_to_roi_weight=0.5),
            np.random.default_rng(7),
        )
        before = {k: v.copy() for k, v in roi.state_dict().items()}

        # Disable the direct ROI MSE contribution by zeroing its gradient:
        # monkey-patch the loss to return zero gradient but keep the API.
        calls = []

        class ZeroMSE:
            def forward(self, pred, target, mask=None):
                calls.append(1)
                self._shape = pred.shape
                return 0.0

            def backward(self):
                return np.zeros(self._shape)

        monkeypatch.setattr(joint, "MSELoss", ZeroMSE)
        trainer.train(ds, [0])
        assert calls, "the patched ROI loss was not used"
        after = roi.state_dict()
        moved = any(
            not np.allclose(before[k], after[k]) for k in before
        )
        assert moved, "segmentation gradient did not reach the ROI predictor"

    def test_blink_frames_skip_roi_supervision(self):
        """Sequences with occluded frames (no GT box) still train."""
        roi, vit = tiny_components()
        cfg = DatasetConfig(
            height=32, width=32, frames_per_sequence=5, num_sequences=1
        )
        ds = SyntheticEyeDataset(cfg)
        seq = ds[0]
        seq.roi_boxes[2] = None  # force an occluded frame
        trainer = JointTrainer(
            roi, vit, JointTrainConfig(epochs=1), np.random.default_rng(8)
        )
        result = trainer.train(ds, [0])
        assert len(result.seg_losses) == 1

    def test_ci_config_is_consistent(self):
        cfg = ci()
        assert cfg.vit.height == cfg.dataset.height
        assert cfg.vit.width == cfg.dataset.width
