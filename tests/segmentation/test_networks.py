"""Tests for the three segmentation networks and metrics."""

import numpy as np
import pytest

from repro.nn import Adam, CrossEntropyLoss
from repro.segmentation import (
    EdGazeNet,
    RITNet,
    ViTConfig,
    ViTSegmenter,
    confusion_matrix,
    mean_iou,
    per_class_iou,
    pixel_accuracy,
)

RNG = np.random.default_rng(0)


def tiny_vit(height=32, width=32, patch=8):
    cfg = ViTConfig(
        height=height, width=width, patch=patch, dim=24, heads=3,
        depth=1, decoder_depth=1,
    )
    return ViTSegmenter(cfg, np.random.default_rng(1))


def _train_briefly(model, frames, masks, targets, steps=15, lr=5e-3):
    loss_fn = CrossEntropyLoss()
    opt = Adam(model.parameters(), lr=lr)
    first = None
    for _ in range(steps):
        logits = model(frames, masks)
        loss = loss_fn.forward(logits, targets)
        if first is None:
            first = loss
        model.zero_grad()
        model.backward(loss_fn.backward())
        opt.step()
    return first, loss


class TestViT:
    def test_output_shape(self):
        model = tiny_vit()
        logits = model(RNG.random((2, 32, 32)), np.ones((2, 32, 32), dtype=bool))
        assert logits.shape == (2, 32, 32, 4)

    def test_predict_returns_labels(self):
        model = tiny_vit()
        seg = model.predict(RNG.random((32, 32)), np.ones((32, 32), dtype=bool))
        assert seg.shape == (32, 32)
        assert seg.min() >= 0 and seg.max() < 4

    def test_trains_on_sparse_input(self):
        model = tiny_vit()
        frames = RNG.random((2, 32, 32))
        masks = RNG.random((2, 32, 32)) < 0.2
        targets = RNG.integers(0, 4, size=(2, 32, 32))
        first, last = _train_briefly(model, frames * masks, masks, targets)
        assert last < first

    def test_empty_tokens_are_masked_not_crashing(self):
        model = tiny_vit()
        masks = np.zeros((1, 32, 32), dtype=bool)
        masks[0, :8, :8] = True  # only one patch token valid
        logits = model(RNG.random((1, 32, 32)) * masks, masks)
        assert np.isfinite(logits).all()

    def test_mac_count_shrinks_with_sparsity(self):
        model = tiny_vit()
        dense = model.mac_count()
        sparse = model.mac_count(valid_tokens=2)
        assert sparse < dense / 3

    def test_paper_config_dimensions(self):
        cfg = ViTConfig.paper()
        assert cfg.depth == 12 and cfg.decoder_depth == 2
        assert cfg.dim == 192 and cfg.heads == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ViTConfig(height=30, width=32, patch=8)
        with pytest.raises(ValueError):
            ViTConfig(height=32, width=32, patch=8, dim=25, heads=3)

    def test_backward_to_input_shapes(self):
        model = tiny_vit()
        frames = RNG.random((1, 32, 32))
        masks = np.ones((1, 32, 32), dtype=bool)
        logits = model(frames, masks)
        grad_pix, grad_bit = model.backward_to_input(np.ones_like(logits))
        assert grad_pix.shape == (1, 32, 32)
        assert grad_bit.shape == (1, 32, 32)

    def test_state_dict_roundtrip(self):
        model = tiny_vit()
        frames = RNG.random((1, 32, 32))
        masks = np.ones((1, 32, 32), dtype=bool)
        out_a = model(frames, masks)
        clone = tiny_vit()
        clone.load_state_dict(model.state_dict())
        np.testing.assert_allclose(out_a, clone(frames, masks))


class TestCNNBaselines:
    @pytest.mark.parametrize("cls", [RITNet, EdGazeNet])
    def test_output_shape(self, cls):
        model = cls(np.random.default_rng(2), base_channels=4)
        logits = model(RNG.random((2, 32, 32)), np.ones((2, 32, 32)))
        assert logits.shape == (2, 32, 32, 4)

    @pytest.mark.parametrize("cls", [RITNet, EdGazeNet])
    def test_trains_dense(self, cls):
        model = cls(np.random.default_rng(3), base_channels=4)
        frames = RNG.random((2, 32, 32))
        masks = np.ones((2, 32, 32))
        targets = RNG.integers(0, 4, size=(2, 32, 32))
        first, last = _train_briefly(model, frames, masks, targets)
        assert last < first

    def test_edgaze_cheaper_than_ritnet(self):
        """EdGaze's depthwise-separable design uses fewer MACs (Fig. 2)."""
        rit = RITNet(np.random.default_rng(4), base_channels=8)
        edg = EdGazeNet(np.random.default_rng(5), base_channels=8)
        assert edg.mac_count(64, 64) < rit.mac_count(64, 64)

    def test_vit_sparse_cost_below_cnn(self):
        """At the paper's sparsity the ViT does less work than the CNNs,
        whose convolutions still cover the whole frame."""
        vit = tiny_vit(64, 64, patch=8)
        rit = RITNet(np.random.default_rng(6), base_channels=8)
        sparse_tokens = int(vit.config.tokens * 0.108)
        assert vit.mac_count(sparse_tokens) < rit.mac_count(64, 64)


class TestPredictBatchInvariance:
    """``predict_batch`` rows == width-1 ``predict`` calls, bitwise.

    Mirrors the ROI predictor's ``TestBatchInvariance``: the batched
    dense forwards must be row-independent so the strategy graph's
    segment-or-reuse stage can stack the rank without changing any row.
    """

    B = 5

    def _inputs(self):
        rng = np.random.default_rng(11)
        frames = rng.random((self.B, 32, 32))
        masks = rng.random((self.B, 32, 32)) < 0.25
        return frames * masks, masks

    @pytest.mark.parametrize("cls", [EdGazeNet, RITNet])
    def test_cnn_batch_matches_per_frame(self, cls):
        model = cls(np.random.default_rng(7), base_channels=4).eval()
        frames, masks = self._inputs()
        batched = model.predict_batch(frames, masks)
        assert batched.shape == frames.shape
        for i in range(self.B):
            solo = model.predict(frames[i], masks[i])
            assert np.array_equal(batched[i], solo)

    def test_vit_dense_batch_matches_per_frame(self):
        model = tiny_vit()
        frames, masks = self._inputs()
        batched = model.predict_batch(frames, masks)
        for i in range(self.B):
            solo = model.predict(frames[i], masks[i])
            assert np.array_equal(batched[i], solo)

    @pytest.mark.parametrize("cls", [EdGazeNet, RITNet])
    def test_requires_eval_contract(self, cls):
        """Conv nets declare the eval-mode requirement the engine's
        segment stage keys its training-mode fallback on; the ViT's
        forward has no batch-coupled modules and opts out."""
        assert cls.predict_batch_requires_eval
        assert not ViTSegmenter.predict_batch_requires_eval


class TestMetrics:
    def test_perfect_prediction(self):
        seg = RNG.integers(0, 4, size=(16, 16))
        assert pixel_accuracy(seg, seg) == 1.0
        assert mean_iou(seg, seg) == pytest.approx(1.0)

    def test_confusion_matrix_totals(self):
        pred = RNG.integers(0, 4, size=(16, 16))
        target = RNG.integers(0, 4, size=(16, 16))
        cm = confusion_matrix(pred, target)
        assert cm.sum() == 256

    def test_per_class_iou_absent_class_is_nan(self):
        pred = np.zeros((8, 8), dtype=int)
        target = np.zeros((8, 8), dtype=int)
        iou = per_class_iou(pred, target)
        assert iou[0] == pytest.approx(1.0)
        assert np.isnan(iou[1:]).all()

    def test_known_iou(self):
        target = np.zeros((4, 4), dtype=int)
        target[:2] = 1
        pred = np.zeros((4, 4), dtype=int)
        pred[1:3] = 1
        iou = per_class_iou(pred, target)
        # Class 1: inter 4, union 12.
        assert iou[1] == pytest.approx(4 / 12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            pixel_accuracy(np.zeros((2, 2)), np.zeros((3, 3)))
