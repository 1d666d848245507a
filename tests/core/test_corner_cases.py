"""Corner-case integration tests: blinks, saccades, and sequence edges.

These exercise the situations Sec. III-A singles out as the reason the
ROI predictor gets the previous segmentation map as a corrective cue:
frames where events stop being indicative of the foreground.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.api.tracker import BlissCamPipeline, ci
from repro.synth import (
    DatasetConfig,
    EyeGeometry,
    EyeRenderer,
    EyeState,
    GazeDynamicsConfig,
    SyntheticEyeDataset,
)


@pytest.fixture(scope="module")
def blink_heavy_pipeline():
    config = ci(num_sequences=3, frames_per_sequence=12)
    config = replace(
        config,
        dataset=replace(
            config.dataset,
            dynamics=GazeDynamicsConfig(blink_rate_hz=15.0, fixation_mean_s=0.05),
        ),
    )
    pipeline = BlissCamPipeline(config)
    pipeline.train([0, 1])
    return pipeline


class TestBlinkHandling:
    def test_dataset_contains_blinks(self, blink_heavy_pipeline):
        total_blinks = sum(
            int(blink_heavy_pipeline.dataset[i].blink_flags.sum()) for i in range(3)
        )
        assert total_blinks > 0

    def test_pipeline_survives_blink_sequences(self, blink_heavy_pipeline):
        result = blink_heavy_pipeline.evaluate([2])
        assert result.horizontal.count > 0
        assert np.isfinite(result.horizontal.mean)
        assert np.isfinite(result.vertical.mean)

    def test_fully_closed_eye_frame_has_no_gt_box(self):
        rng = np.random.default_rng(0)
        renderer = EyeRenderer(EyeGeometry(), 32, 32, rng)
        closed = renderer.render(EyeState(lid_aperture=0.0))
        assert closed.roi_box is None

    def test_joint_training_with_forced_blinks(self):
        """A sequence where half the frames are occluded still trains."""
        from repro.sampling import ROIPredictor
        from repro.segmentation import ViTConfig, ViTSegmenter
        from repro.training import JointTrainConfig, JointTrainer

        rng = np.random.default_rng(1)
        ds = SyntheticEyeDataset(
            DatasetConfig(
                height=32,
                width=32,
                frames_per_sequence=8,
                num_sequences=1,
                dynamics=GazeDynamicsConfig(
                    blink_rate_hz=20.0, blink_duration_s=(0.1, 0.2)
                ),
            )
        )
        roi = ROIPredictor(32, 32, rng, base_channels=2)
        vit = ViTSegmenter(
            ViTConfig(height=32, width=32, patch=8, dim=24, heads=3,
                      depth=1, decoder_depth=1),
            rng,
        )
        trainer = JointTrainer(roi, vit, JointTrainConfig(epochs=1), rng)
        result = trainer.train(ds, [0])
        assert np.isfinite(result.seg_losses[0])


class TestSequenceEdges:
    def test_sensor_bootstrap_skips_first_frame(self, blink_heavy_pipeline):
        """Evaluation never emits a gaze estimate for bootstrap frames."""
        result = blink_heavy_pipeline.evaluate([2])
        frames = len(blink_heavy_pipeline.dataset[2])
        assert result.horizontal.count == frames - 1

    def test_reuse_policy_across_sequence_boundary(self, blink_heavy_pipeline):
        """Reuse windows reset at sequence boundaries (no stale boxes)."""
        result = blink_heavy_pipeline.evaluate([2], reuse_window=4)
        assert result.horizontal.count > 0

    def test_single_eval_sequence_deterministic(self, blink_heavy_pipeline):
        a = blink_heavy_pipeline.evaluate([2], sensor_seed=7)
        b = blink_heavy_pipeline.evaluate([2], sensor_seed=7)
        np.testing.assert_allclose(a.predictions, b.predictions)

    def test_different_sensor_seed_changes_sampling(self, blink_heavy_pipeline):
        a = blink_heavy_pipeline.evaluate([2], sensor_seed=7)
        b = blink_heavy_pipeline.evaluate([2], sensor_seed=8)
        # Different SRAM RNG -> different sampled pixels -> different bytes.
        assert a.stats.transmitted_bytes != b.stats.transmitted_bytes
