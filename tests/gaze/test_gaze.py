"""Tests for gaze estimation and angular-error metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaze import (
    AngularErrorStats,
    FittedGazeEstimator,
    GeometricGazeEstimator,
    angular_errors,
    gaze_vector,
    pupil_centroid,
    pupil_centroid_batch,
    vector_angle_deg,
)
from repro.synth import EyeGeometry, EyeRenderer, EyeState, SEG_CLASSES


def rendered(gaze_h=0.0, gaze_v=0.0, size=64):
    rng = np.random.default_rng(0)
    renderer = EyeRenderer(EyeGeometry(), size, size, rng)
    return renderer.render(EyeState(gaze_h=gaze_h, gaze_v=gaze_v))


class TestPupilCentroid:
    def test_centroid_matches_geometry(self):
        frame = rendered(gaze_h=8.0, gaze_v=-5.0)
        centroid = pupil_centroid(frame.segmentation)
        geo = EyeGeometry()
        expected = geo.pupil_center(8.0, -5.0)
        assert centroid[0] == pytest.approx(expected[0], abs=0.05)
        assert centroid[1] == pytest.approx(expected[1], abs=0.05)

    def test_iris_fallback(self):
        seg = np.zeros((32, 32), dtype=int)
        seg[10:20, 10:20] = SEG_CLASSES["iris"]
        centroid = pupil_centroid(seg)
        assert centroid is not None

    def test_none_when_occluded(self):
        assert pupil_centroid(np.zeros((32, 32), dtype=int)) is None

    def test_batch_rows_equal_float_mean_reference(self):
        """Every row of a mixed rank (pupil, iris fallback, blink, a
        below-threshold pupil) is bitwise the float64 mean of the pixel
        indices — the exactness claim behind batching the centroid."""
        rng = np.random.default_rng(4)
        segs = rng.integers(0, 4, size=(5, 24, 32))
        segs[1][segs[1] == SEG_CLASSES["pupil"]] = 0  # iris fallback
        segs[2] = 0  # blink
        segs[3] = 0
        segs[3, 5, 6:8] = SEG_CLASSES["pupil"]  # 2 px < min_pixels
        segs[3, 10:14, 10:14] = SEG_CLASSES["iris"]

        def reference(seg, min_pixels=3):
            for cls in (SEG_CLASSES["pupil"], SEG_CLASSES["iris"]):
                rows, cols = np.nonzero(seg == cls)
                if rows.size >= min_pixels:
                    return (
                        float((rows.mean() + 0.5) / seg.shape[0]),
                        float((cols.mean() + 0.5) / seg.shape[0]),
                    )
            return None

        batch = pupil_centroid_batch(segs)
        assert batch[2] is None
        assert batch == [reference(seg) for seg in segs]
        assert batch == [pupil_centroid(seg) for seg in segs]


class TestGeometricEstimator:
    @given(gaze_h=st.floats(-12, 12), gaze_v=st.floats(-10, 10))
    @settings(max_examples=20, deadline=None)
    def test_recovers_gaze_from_ground_truth_segmentation(self, gaze_h, gaze_v):
        frame = rendered(gaze_h=gaze_h, gaze_v=gaze_v)
        estimator = GeometricGazeEstimator(EyeGeometry())
        pred_h, pred_v = estimator.predict(frame.segmentation)
        assert pred_h == pytest.approx(gaze_h, abs=2.0)
        assert pred_v == pytest.approx(gaze_v, abs=2.0)

    def test_blink_returns_last_estimate(self):
        estimator = GeometricGazeEstimator(EyeGeometry())
        frame = rendered(gaze_h=10.0)
        first = estimator.predict(frame.segmentation)
        blank = np.zeros_like(frame.segmentation)
        assert estimator.predict(blank) == first


class TestFittedEstimator:
    def test_fit_and_predict(self):
        rng = np.random.default_rng(1)
        renderer = EyeRenderer(EyeGeometry(), 64, 64, rng)
        gazes, segs = [], []
        for gh in (-10, -5, 0, 5, 10):
            for gv in (-8, 0, 8):
                frame = renderer.render(EyeState(gaze_h=gh, gaze_v=gv))
                segs.append(frame.segmentation)
                gazes.append((gh, gv))
        est = FittedGazeEstimator()
        est.fit(np.stack(segs), np.array(gazes, dtype=float))
        frame = renderer.render(EyeState(gaze_h=7.0, gaze_v=-4.0))
        pred_h, pred_v = est.predict(frame.segmentation)
        assert pred_h == pytest.approx(7.0, abs=1.5)
        assert pred_v == pytest.approx(-4.0, abs=1.5)

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            FittedGazeEstimator().predict(np.zeros((8, 8), dtype=int))

    def test_fit_needs_visible_pupils(self):
        est = FittedGazeEstimator()
        with pytest.raises(ValueError):
            est.fit(np.zeros((5, 8, 8), dtype=int), np.zeros((5, 2)))


class TestMetrics:
    def test_angular_errors_basic(self):
        pred = np.array([[1.0, 2.0], [3.0, 4.0]])
        truth = np.array([[0.0, 0.0], [0.0, 0.0]])
        horizontal, vertical = angular_errors(pred, truth)
        assert horizontal.mean == pytest.approx(2.0)
        assert vertical.mean == pytest.approx(3.0)

    def test_stats_fields(self):
        stats = AngularErrorStats.from_errors(np.array([1.0, 2.0, 3.0]))
        assert stats.median == 2.0
        assert stats.count == 3
        assert stats.std == pytest.approx(np.std([1, 2, 3]))

    def test_empty_errors_raise(self):
        with pytest.raises(ValueError):
            AngularErrorStats.from_errors(np.array([]))

    def test_bad_shapes_raise(self):
        with pytest.raises(ValueError):
            angular_errors(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_gaze_vector_is_unit(self):
        vec = gaze_vector(15.0, -10.0)
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_vector_angle_zero_for_same_direction(self):
        assert vector_angle_deg((5.0, 5.0), (5.0, 5.0)) == pytest.approx(0.0)

    def test_vector_angle_simple(self):
        assert vector_angle_deg((10.0, 0.0), (0.0, 0.0)) == pytest.approx(
            10.0, abs=1e-6
        )
