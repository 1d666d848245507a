"""Edge cases of the generic training loop and the joint-training config.

Satellite coverage of this PR: ``batched()`` degenerate widths,
``TrainResult.final_loss`` on empty trajectories, the
``supervise_sampled_only`` gradient masking actually zeroing
unsampled-pixel gradients, eager :class:`JointTrainConfig` validation,
and the ROI-aware :class:`JointTrainResult.improved`.
"""

import numpy as np
import pytest

from repro.nn import CrossEntropyLoss, MSELoss
from repro.segmentation import ViTConfig, ViTSegmenter
from repro.training import (
    JointTrainConfig,
    JointTrainResult,
    TrainResult,
    batched,
    train_segmentation,
)


class TestBatchedEdges:
    def test_batch_size_equal_to_length_is_one_chunk(self):
        assert list(batched([1, 2, 3], 3)) == [[1, 2, 3]]

    def test_batch_size_above_length_is_one_chunk(self):
        assert list(batched([1, 2, 3], 100)) == [[1, 2, 3]]

    def test_empty_items_yield_nothing(self):
        assert list(batched([], 4)) == []


class TestTrainSegmentationValidation:
    def test_validates_inputs(self):
        # Bad inputs fail with named errors, not a bare
        # ZeroDivisionError from an empty epoch.
        rng = np.random.default_rng(0)
        vit = ViTSegmenter(
            ViTConfig(height=16, width=16, patch=8, dim=24, heads=3,
                      depth=1, decoder_depth=1),
            rng,
        )
        with pytest.raises(ValueError, match="no training samples"):
            train_segmentation(
                vit, [], epochs=1, rng=rng, lr=1e-3, batch_size=4,
                grad_clip=5.0, supervise_sampled_only=False,
            )
        sample = (np.zeros((16, 16)), np.ones((16, 16), dtype=bool),
                  np.zeros((16, 16), dtype=np.int64))
        with pytest.raises(ValueError, match="epochs"):
            train_segmentation(
                vit, [sample], epochs=0, rng=rng, lr=1e-3, batch_size=4,
                grad_clip=5.0, supervise_sampled_only=False,
            )


class TestTrainResultEdges:
    def test_final_loss_on_empty_trajectory_raises(self):
        with pytest.raises(ValueError, match="no epochs"):
            TrainResult().final_loss

    def test_empty_trajectory_never_improved(self):
        assert not TrainResult().improved
        assert not TrainResult(epoch_losses=[1.0]).improved


class TestSupervisedSampledOnly:
    def test_mask_zeroes_unsampled_pixel_gradients(self):
        # The loss-level mechanism behind supervise_sampled_only: the
        # cross-entropy gradient must vanish exactly at masked-out
        # positions, so nothing flows back from unsampled pixels.
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((2, 8, 8, 4))
        targets = rng.integers(0, 4, size=(2, 8, 8))
        mask = rng.random((2, 8, 8)) < 0.3
        loss = CrossEntropyLoss()
        loss.forward(logits, targets, mask=mask)
        grad = loss.backward()
        assert np.all(grad[~mask] == 0.0)
        assert np.any(grad[mask] != 0.0)

    def test_training_with_mask_converges_on_sampled_pixels(self):
        rng = np.random.default_rng(1)
        vit = ViTSegmenter(
            ViTConfig(height=16, width=16, patch=8, dim=24, heads=3,
                      depth=1, decoder_depth=1),
            rng,
        )
        samples = [
            (
                rng.random((16, 16)),
                rng.random((16, 16)) < 0.4,
                rng.integers(0, 4, size=(16, 16)),
            )
            for _ in range(4)
        ]
        result = train_segmentation(
            vit, samples, epochs=2, rng=np.random.default_rng(2),
            supervise_sampled_only=True,
        )
        assert len(result.epoch_losses) == 2
        assert all(np.isfinite(result.epoch_losses))


class TestJointTrainConfigValidation:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"epochs": 0}, "epochs"),
            ({"lr_segmenter": 0.0}, "lr_segmenter"),
            ({"lr_roi": -1e-3}, "lr_roi"),
            ({"roi_sampling_rate": 0.0}, "roi_sampling_rate"),
            ({"roi_sampling_rate": 1.5}, "roi_sampling_rate"),
            ({"seg_to_roi_weight": -0.1}, "seg_to_roi_weight"),
            ({"grad_clip": 0.0}, "grad_clip"),
            ({"tau": 0.0}, "tau"),
            ({"cue_dropout": -0.1}, "cue_dropout"),
            ({"cue_dropout": 1.1}, "cue_dropout"),
            ({"cue_dilate_prob": 2.0}, "cue_dilate_prob"),
            ({"cue_dilate_max_px": 0}, "cue_dilate_max_px"),
            ({"batch_size": 0}, "batch_size"),
        ],
    )
    def test_bad_field_is_named(self, kwargs, field):
        with pytest.raises(ValueError, match=f"joint.{field}"):
            JointTrainConfig(**kwargs)

    def test_defaults_and_boundaries_valid(self):
        JointTrainConfig()
        JointTrainConfig(
            cue_dropout=0.0, cue_dilate_prob=1.0, roi_sampling_rate=1.0,
            batch_size=64,
        )


class TestImprovedIsRoiAware:
    def test_both_trajectories_down_improves(self):
        result = JointTrainResult(
            seg_losses=[1.0, 0.5], roi_losses=[0.2, 0.1]
        )
        assert result.improved

    def test_roi_regression_blocks_improved(self):
        # Segmentation alone dropping no longer counts: the box feeds
        # the sampler the segmenter depends on at run time.
        result = JointTrainResult(
            seg_losses=[1.0, 0.5], roi_losses=[0.1, 0.4]
        )
        assert not result.improved

    def test_flat_roi_trajectory_still_improves(self):
        result = JointTrainResult(
            seg_losses=[1.0, 0.5], roi_losses=[0.1, 0.1]
        )
        assert result.improved

    def test_single_epoch_never_improved(self):
        assert not JointTrainResult(
            seg_losses=[1.0], roi_losses=[0.1]
        ).improved


class TestRowWeightSeam:
    """The per-row ``mask`` weighting the batched training ranks rely on."""

    def test_mse_zero_weight_rows_get_zero_loss_and_gradient(self):
        # The blink-frame mechanism of the batched joint rank: one
        # forward over a mixed supervised/unsupervised minibatch, with
        # unsupervised rows contributing exactly nothing.
        pred = np.array([[0.5, 0.5], [1.0, 0.0]])
        target = np.zeros_like(pred)
        mask = np.array([[1.0], [0.0]])
        loss = MSELoss()
        value = loss.forward(pred, target, mask=mask)
        assert value == pytest.approx(0.25)  # mean over the supervised row
        grad = loss.backward()
        assert np.all(grad[1] == 0.0)
        assert np.any(grad[0] != 0.0)

    def test_mse_all_rows_weighted_matches_unmasked(self):
        # weight=ones must reproduce the unmasked path exactly — the
        # B=1 supervised case of the joint rank vs the per-frame loop.
        rng = np.random.default_rng(3)
        pred = rng.standard_normal((1, 4))
        target = rng.standard_normal((1, 4))
        masked, unmasked = MSELoss(), MSELoss()
        assert masked.forward(pred, target, mask=np.ones((1, 1))) == (
            unmasked.forward(pred, target)
        )
        assert np.array_equal(masked.backward(), unmasked.backward())
