"""Tests for ROI box utilities, the ROI predictor, and reuse policy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling import (
    ROIPredictor,
    ROIReusePolicy,
    box_area,
    box_from_pixels,
    box_iou,
    box_mask,
    box_to_pixels,
    expand_box,
    order_box,
)

RNG = np.random.default_rng(0)


class TestBoxUtils:
    def test_order_box_sorts_corners(self):
        np.testing.assert_array_equal(
            order_box(np.array([0.8, 0.9, 0.2, 0.1])), [0.2, 0.1, 0.8, 0.9]
        )

    def test_box_to_pixels_clips(self):
        box = np.array([-0.5, -0.5, 1.5, 1.5])
        assert box_to_pixels(box, 32, 64) == (0, 0, 32, 64)

    def test_box_to_pixels_degenerate_becomes_one_pixel(self):
        box = np.array([0.5, 0.5, 0.5, 0.5])
        r0, c0, r1, c1 = box_to_pixels(box, 32, 32)
        assert r1 - r0 >= 1 and c1 - c0 >= 1

    @given(
        r0=st.floats(0, 0.9),
        c0=st.floats(0, 0.9),
        dr=st.floats(0.05, 0.5),
        dc=st.floats(0.05, 0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_pixel_roundtrip_contains_original(self, r0, c0, dr, dc):
        """Pixel conversion (floor/ceil) never shrinks the normalized box."""
        box = np.array([r0, c0, min(r0 + dr, 1.0), min(c0 + dc, 1.0)])
        pix = box_to_pixels(box, 64, 64)
        back = box_from_pixels(pix, 64, 64)
        assert back[0] <= box[0] + 1e-9 and back[1] <= box[1] + 1e-9
        assert back[2] >= box[2] - 1e-9 and back[3] >= box[3] - 1e-9

    def test_iou_identity_and_disjoint(self):
        a = (0, 0, 10, 10)
        assert box_iou(a, a) == pytest.approx(1.0)
        assert box_iou(a, (20, 20, 30, 30)) == 0.0

    def test_iou_half_overlap(self):
        assert box_iou((0, 0, 10, 10), (0, 5, 10, 15)) == pytest.approx(1 / 3)

    def test_box_mask_and_area_agree(self):
        box = (2, 3, 10, 12)
        mask = box_mask(box, 16, 16)
        assert mask.sum() == box_area(box)

    def test_expand_box_clips_to_frame(self):
        assert expand_box((0, 0, 4, 4), 3, 16, 16) == (0, 0, 7, 7)
        assert expand_box((10, 10, 16, 16), 3, 16, 16) == (7, 7, 16, 16)


class TestROIPredictor:
    def test_output_is_valid_box(self):
        net = ROIPredictor(32, 32, RNG, base_channels=2)
        event = RNG.random((32, 32)) < 0.1
        box = net.predict_box(event, None)
        assert box.shape == (4,)
        assert np.all(box >= 0) and np.all(box <= 1)
        assert box[0] <= box[2] and box[1] <= box[3]

    def test_accepts_prev_segmentation(self):
        net = ROIPredictor(32, 32, RNG, base_channels=2)
        event = RNG.random((32, 32)) < 0.1
        seg = RNG.integers(0, 4, size=(32, 32))
        box_a = net.predict_box(event, None)
        box_b = net.predict_box(event, seg)
        # The corrective cue must actually reach the network.
        assert not np.allclose(box_a, box_b)

    def test_mac_count_scale(self):
        """At the paper's 640x400 with base 8 channels, MACs are O(2e7)."""
        net = ROIPredictor(400, 640, np.random.default_rng(1), base_channels=4)
        assert 5e6 < net.mac_count() < 8e7

    def test_rejects_indivisible_resolution(self):
        with pytest.raises(ValueError):
            ROIPredictor(30, 30, RNG)

    def test_trainable_toward_target_box(self):
        from repro.nn import Adam, MSELoss

        net = ROIPredictor(16, 16, RNG, base_channels=2)
        event = (RNG.random((16, 16)) < 0.2).astype(float)
        x = ROIPredictor.make_input(event, None)
        target = np.array([[0.2, 0.3, 0.7, 0.8]])
        loss_fn = MSELoss()
        opt = Adam(net.parameters(), lr=3e-3)
        first = loss_fn.forward(net(x), target)
        for _ in range(30):
            net.zero_grad()
            loss_fn.forward(net(x), target)
            net.backward(loss_fn.backward())
            opt.step()
        last = loss_fn.forward(net(x), target)
        assert last < first * 0.5


class TestROIReusePolicy:
    def test_window_one_always_predicts(self):
        policy = ROIReusePolicy(window=1)
        assert policy.should_predict()
        policy.update(np.array([0, 0, 1, 1]))
        assert policy.should_predict()

    def test_window_four_reuses_three_times(self):
        policy = ROIReusePolicy(window=4)
        policy.update(np.array([0.1, 0.1, 0.9, 0.9]))
        predictions = 0
        for _ in range(8):
            if policy.should_predict():
                policy.update(np.array([0.1, 0.1, 0.9, 0.9]))
                predictions += 1
            else:
                policy.tick()
        assert predictions == 2  # frames 0 and 4 (the initial update was frame -1)

    def test_current_before_update_raises(self):
        with pytest.raises(RuntimeError):
            ROIReusePolicy(window=2).current()

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            ROIReusePolicy(window=0)

    def test_reset_clears_cache(self):
        policy = ROIReusePolicy(window=8)
        policy.update(np.array([0, 0, 1, 1]))
        policy.reset()
        assert policy.should_predict()


class TestBatchInvariance:
    """The ROI predictor's batch-invariance contract (bitwise).

    The conv layers are row-independent GEMMs (one fixed-shape matmul per
    sample, see ``Conv2d.forward``) and the batched box predictor runs
    its FC tail per-row, so stacking frames into one forward must produce
    bit-identical boxes to width-1 calls — the contract the staged
    engine's ROI-predict stage is built on.
    """

    def test_conv_forward_batch_invariant(self):
        from repro import nn

        rng = np.random.default_rng(0)
        conv = nn.Conv2d(2, 8, kernel_size=3, rng=rng, stride=2, padding=1)
        x = rng.random((7, 2, 16, 16))
        stacked = conv(x)
        for b in range(x.shape[0]):
            solo = conv(x[b : b + 1])
            assert np.array_equal(stacked[b], solo[0]), f"sample {b} diverged"

    def test_predict_box_batch_matches_per_frame(self):
        rng = np.random.default_rng(5)
        predictor = ROIPredictor(32, 32, rng, base_channels=4)
        events = [rng.random((32, 32)) < 0.1 for _ in range(5)]
        segs = [
            None,
            rng.integers(0, 4, size=(32, 32)),
            None,
            rng.integers(0, 4, size=(32, 32)),
            rng.integers(0, 4, size=(32, 32)),
        ]
        batched = predictor.predict_box_batch(events, segs)
        for i, (event, seg) in enumerate(zip(events, segs)):
            solo = predictor.predict_box(event, seg)
            assert np.array_equal(batched[i], solo), f"frame {i} diverged"
