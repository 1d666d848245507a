"""Tests for the CLI and the ablation runners."""

import numpy as np
import pytest

from repro.analysis import (
    normalization_ablation,
    sampling_rate_sweep,
    sigma_sensitivity,
)
from repro.cli import build_parser
from repro.segmentation import ViTConfig, ViTSegmenter
from repro.synth import DatasetConfig, SyntheticEyeDataset


@pytest.fixture(scope="module")
def small_dataset():
    return SyntheticEyeDataset(
        DatasetConfig(
            height=32, width=32, frames_per_sequence=6, num_sequences=2,
            eye_scale=0.8,
        )
    )


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])


class TestAblationRunners:
    def test_sigma_sensitivity_monotone_density(self, small_dataset):
        rows = sigma_sensitivity(small_dataset, [0.01, 0.06, 0.2])
        densities = [r["density"] for r in rows]
        assert all(a >= b for a, b in zip(densities, densities[1:]))
        for row in rows:
            assert 0.0 <= row["recall"] <= 1.0
            assert 0.0 <= row["precision"] <= 1.0

    def test_normalization_ablation_keys(self, small_dataset):
        results = normalization_ablation(small_dataset)
        assert len(results) == 2
        for stats in results.values():
            assert 0.0 <= stats["recall"] <= 1.0

    def test_sampling_rate_sweep_shapes(self, small_dataset):
        def factory(rng):
            return ViTSegmenter(
                ViTConfig(height=32, width=32, patch=8, dim=24, heads=3,
                          depth=1, decoder_depth=1),
                rng,
            )

        rows = sampling_rate_sweep(
            small_dataset, factory, rates=[0.1, 0.5], epochs=1
        )
        assert len(rows) == 2
        assert rows[0]["compression"] > rows[1]["compression"]


class TestEventMetrics:
    def test_event_recall_full_coverage(self):
        from repro.sampling import eventify
        from repro.sampling.eventification import event_precision, event_recall

        fg = np.zeros((16, 16), dtype=bool)
        fg[4:12, 4:12] = True
        events = np.zeros((16, 16), dtype=bool)
        events[4, 4] = events[11, 11] = True  # box spans the foreground
        assert event_recall(events, fg) == 1.0
        assert event_precision(events, fg) == 1.0

    def test_event_recall_no_events(self):
        from repro.sampling.eventification import event_recall

        fg = np.ones((8, 8), dtype=bool)
        assert event_recall(np.zeros((8, 8), dtype=bool), fg) == 0.0

    def test_event_recall_no_foreground_is_vacuous(self):
        from repro.sampling.eventification import event_precision, event_recall

        events = np.zeros((8, 8), dtype=bool)
        assert event_recall(events, np.zeros((8, 8), dtype=bool)) == 1.0
        assert event_precision(events, np.zeros((8, 8), dtype=bool)) == 1.0

    def test_normalized_eventification_fires_on_relative_change(self):
        from repro.sampling.eventification import eventify_normalized

        prev = np.full((4, 4), 0.1)
        cur = prev.copy()
        cur[0, 0] = 0.13  # 30 % relative change, small absolute change
        events = eventify_normalized(prev, cur, contrast_threshold=0.15)
        assert events[0, 0]
        assert events.sum() == 1

    def test_normalized_eventification_validation(self):
        from repro.sampling.eventification import eventify_normalized

        with pytest.raises(ValueError):
            eventify_normalized(np.zeros((2, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            eventify_normalized(
                np.zeros((2, 2)), np.zeros((2, 2)), contrast_threshold=-1
            )
