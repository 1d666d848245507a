"""Unit tests for result records, workload stats, and table formatting."""

import numpy as np
import pytest

from repro.api.tracker import EvaluationResult, WorkloadStats
from repro.api.result import Table, _fmt
from repro.gaze.metrics import AngularErrorStats
from repro.hardware import WorkloadProfile


def record(stats, n=3, **overrides):
    base = dict(
        roi_fraction=0.15,
        sampled_fraction=0.05,
        token_fraction=0.11,
        tx_bytes=300,
        rle_ratio=2.0,
        roi_iou=0.7,
    )
    base.update(overrides)
    for _ in range(n):
        stats.record(**base)


class TestWorkloadStats:
    def test_means(self):
        stats = WorkloadStats()
        record(stats)
        assert stats.mean_roi_fraction == pytest.approx(0.15)
        assert stats.mean_sampled_fraction == pytest.approx(0.05)
        assert stats.mean_valid_token_fraction == pytest.approx(0.11)
        assert stats.mean_compression == pytest.approx(20.0)
        assert stats.mean_roi_iou == pytest.approx(0.7)

    def test_empty_stats_are_safe(self):
        stats = WorkloadStats()
        assert stats.mean_roi_fraction == 0.0
        assert stats.mean_compression == float("inf")
        assert stats.mean_roi_iou == 0.0

    def test_none_iou_skipped(self):
        stats = WorkloadStats()
        record(stats, n=1, roi_iou=None)
        record(stats, n=1, roi_iou=0.5)
        assert stats.mean_roi_iou == pytest.approx(0.5)

    def test_to_profile_overrides_fractions(self):
        stats = WorkloadStats()
        record(stats)
        profile = stats.to_profile(WorkloadProfile())
        assert profile.roi_fraction == pytest.approx(0.15)
        assert profile.sampled_fraction == pytest.approx(0.05)
        assert profile.valid_token_fraction == pytest.approx(0.11)
        # Untouched fields keep the base profile's values.
        assert profile.seg_macs_dense == WorkloadProfile().seg_macs_dense

    def test_to_profile_clamps_zero_fractions(self):
        stats = WorkloadStats()
        record(stats, n=1, roi_fraction=0.0, sampled_fraction=0.0,
               token_fraction=0.0)
        profile = stats.to_profile()
        assert profile.roi_fraction > 0
        assert profile.sampled_fraction > 0


class TestEvaluationResult:
    @staticmethod
    def make(h_mean, v_mean):
        stats = AngularErrorStats(h_mean, 0.1, h_mean, h_mean, 10)
        stats_v = AngularErrorStats(v_mean, 0.1, v_mean, v_mean, 10)
        return EvaluationResult(
            horizontal=stats,
            vertical=stats_v,
            stats=WorkloadStats(),
            predictions=np.zeros((10, 2)),
            truths=np.zeros((10, 2)),
        )

    def test_within_one_degree(self):
        assert self.make(0.7, 0.8).within_one_degree
        assert not self.make(1.2, 0.5).within_one_degree
        assert not self.make(0.5, 1.2).within_one_degree


class TestFormatting:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (0, "0"),
            (0.0, "0"),
            (1, "1"),
            (2.5, "2.5"),
            (2.5000001, "2.5"),
            ("text", "text"),
            (1234.5, "1.23e+03"),
            (0.0001, "0.0001"),
        ],
    )
    def test_fmt(self, value, expected):
        assert _fmt(value) == expected

    def test_table_without_title(self):
        table = Table(["x"])
        table.add_row(1)
        assert len(table.render().splitlines()) == 3

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            Table([])
