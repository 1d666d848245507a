"""Integration tests: the end-to-end pipeline and the variant harness."""

import numpy as np
import pytest

from repro.api import STRATEGIES
from repro.api.result import PaperComparison, Table
from repro.api.tracker import (
    BlissCamPipeline,
    ci,
    evaluate_strategy,
    paper,
    train_for_strategy,
)
from repro.segmentation import ViTConfig, ViTSegmenter
from repro.synth import DatasetConfig, SyntheticEyeDataset


@pytest.fixture(scope="module")
def trained_pipeline():
    pipe = BlissCamPipeline(ci(num_sequences=3, frames_per_sequence=8))
    pipe.train([0, 1])
    return pipe


class TestBlissCamPipeline:
    def test_training_improves_losses(self, trained_pipeline):
        result = trained_pipeline._train_result
        assert result.improved
        assert result.roi_losses[-1] < result.roi_losses[0]

    def test_evaluation_produces_errors_and_stats(self, trained_pipeline):
        result = trained_pipeline.evaluate([2])
        assert result.horizontal.count > 0
        assert result.horizontal.mean >= 0
        assert 0 < result.stats.mean_sampled_fraction < 1
        assert 0 < result.stats.mean_valid_token_fraction <= 1
        assert result.stats.mean_compression > 1

    def test_stats_feed_hardware_profile(self, trained_pipeline):
        result = trained_pipeline.evaluate([2])
        profile = result.stats.to_profile()
        assert profile.sampled_fraction == pytest.approx(
            result.stats.mean_sampled_fraction
        )

    def test_roi_reuse_degrades_accuracy(self, trained_pipeline):
        """Table I direction: larger reuse windows should not help."""
        fresh = trained_pipeline.evaluate([2], reuse_window=1)
        reused = trained_pipeline.evaluate([2], reuse_window=16)
        # Reuse can only match or hurt; allow noise slack.
        assert (
            reused.vertical.mean + reused.horizontal.mean
            >= 0.7 * (fresh.vertical.mean + fresh.horizontal.mean)
        )

    def test_evaluate_before_train_raises(self):
        pipe = BlissCamPipeline(ci(num_sequences=2, frames_per_sequence=4))
        with pytest.raises(RuntimeError):
            pipe.evaluate()

    def test_paper_config_shape(self):
        cfg = paper()
        assert (cfg.height, cfg.width) == (400, 640)
        assert cfg.vit.depth == 12
        assert cfg.joint.epochs == 250


class TestStrategyHarness:
    @pytest.fixture(scope="class")
    def setup(self):
        ds = SyntheticEyeDataset(
            DatasetConfig(height=32, width=32, frames_per_sequence=6, num_sequences=3)
        )
        rng = np.random.default_rng(0)
        vit = ViTSegmenter(
            ViTConfig(height=32, width=32, patch=8, dim=24, heads=3,
                      depth=1, decoder_depth=1),
            rng,
        )
        return ds, rng, vit

    def test_train_and_evaluate_ours(self, setup):
        ds, rng, vit = setup
        strategy = STRATEGIES["Ours (ROI+Random)"](compression=4.0)
        train_for_strategy(vit, strategy, ds, [0, 1], epochs=2, rng=rng)
        result = evaluate_strategy(strategy, vit, ds, [2], rng)
        assert result.frames > 0
        assert result.mean_compression > 1.5

    def test_skip_strategy_reuses_segmentations(self, setup):
        ds, rng, vit = setup
        strategy = STRATEGIES["Skip"](compression=4.0)
        result = evaluate_strategy(strategy, vit, ds, [2], rng)
        assert result.frames > 0

    def test_registry_builds_all_names(self, setup):
        ds, _, _ = setup
        from repro.sampling import STRATEGY_NAMES

        for name in STRATEGY_NAMES:
            strategy = STRATEGIES[name](compression=8.0, dataset=ds)
            assert strategy.name == name

    def test_unknown_strategy_raises(self):
        with pytest.raises(KeyError):
            STRATEGIES["nope"](4.0)

    def test_roi_fixed_needs_dataset(self):
        with pytest.raises(ValueError):
            STRATEGIES["ROI+Fixed"](4.0)


class TestResultsFormatting:
    def test_table_renders_aligned(self):
        table = Table(["a", "bb"], title="T")
        table.add_row(1, 2.5)
        table.add_row("xyz", 0.0001)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5  # title, header, separator, two rows
        assert "xyz" in lines[4]

    def test_table_validates_row_length(self):
        table = Table(["a"])
        with pytest.raises(ValueError):
            table.add_row(1, 2)

    def test_paper_comparison(self):
        cmp = PaperComparison("Fig. X")
        cmp.add("saving", 4.0, 4.7)
        text = cmp.render()
        assert "Fig. X" in text and "4.7" in text
