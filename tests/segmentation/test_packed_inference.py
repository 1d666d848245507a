"""Tests for dropped-token (packed) sparse inference."""

import numpy as np
import pytest

from repro.segmentation import ViTConfig, ViTSegmenter


@pytest.fixture(scope="module")
def vit():
    return ViTSegmenter(
        ViTConfig(height=32, width=32, patch=8, dim=24, heads=3,
                  depth=2, decoder_depth=1),
        np.random.default_rng(0),
    )


def roi_mask(shape=(32, 32), box=(8, 8, 24, 24), rate=0.3, seed=1):
    rng = np.random.default_rng(seed)
    mask = np.zeros(shape, dtype=bool)
    r0, c0, r1, c1 = box
    mask[r0:r1, c0:c1] = rng.random((r1 - r0, c1 - c0)) < rate
    return mask


class TestPackedInference:
    def test_valid_patches_match_masked_forward(self, vit):
        rng = np.random.default_rng(2)
        frame = rng.random((32, 32))
        mask = roi_mask()
        masked = vit.forward((frame * mask)[None], mask[None])[0]
        packed, valid = vit.forward_packed(frame * mask, mask)
        patch = vit.config.patch
        grid = 32 // patch
        for t in np.nonzero(valid)[0]:
            gr, gc = divmod(int(t), grid)
            np.testing.assert_allclose(
                masked[gr * patch : (gr + 1) * patch, gc * patch : (gc + 1) * patch],
                packed[gr * patch : (gr + 1) * patch, gc * patch : (gc + 1) * patch],
                atol=1e-9,
            )

    @pytest.mark.parametrize(
        "box, rate", [((8, 8, 24, 24), 0.3), ((0, 0, 8, 8), 1.0),
                      ((0, 0, 32, 32), 0.1), ((0, 0, 32, 32), 0.0)]
    )
    def test_forward_packed_matches_unpacked_reference(
        self, vit, box, rate, unpacked_reference
    ):
        rng = np.random.default_rng(6)
        frame = rng.random((32, 32))
        mask = roi_mask(box=box, rate=rate)
        packed, valid = vit.forward_packed(frame * mask, mask)
        reference, ref_valid = unpacked_reference(vit, frame * mask, mask)
        assert np.array_equal(valid, ref_valid)
        np.testing.assert_allclose(packed, reference, rtol=0, atol=1e-12)

    def test_invalid_patches_predict_background(self, vit):
        frame = np.zeros((32, 32))
        mask = roi_mask(box=(8, 8, 16, 16), rate=1.0)
        seg = vit.predict_packed(frame, mask)
        # Patches with no samples must decode to the background class.
        assert np.all(seg[24:, 24:] == 0)

    def test_empty_mask_is_all_background(self, vit):
        seg = vit.predict_packed(np.zeros((32, 32)), np.zeros((32, 32), dtype=bool))
        assert np.all(seg == 0)

    def test_predictions_agree_inside_roi(self, vit):
        rng = np.random.default_rng(3)
        frame = rng.random((32, 32))
        mask = roi_mask()
        full = vit.predict(frame * mask, mask)
        packed = vit.predict_packed(frame * mask, mask)
        # Identical argmax wherever tokens were valid.
        _, valid = vit.forward_packed(frame * mask, mask)
        patch = vit.config.patch
        grid = 32 // patch
        for t in np.nonzero(valid)[0]:
            gr, gc = divmod(int(t), grid)
            np.testing.assert_array_equal(
                full[gr * patch : (gr + 1) * patch, gc * patch : (gc + 1) * patch],
                packed[gr * patch : (gr + 1) * patch, gc * patch : (gc + 1) * patch],
            )

    def test_valid_count_matches_mask(self, vit):
        mask = roi_mask(box=(0, 0, 8, 8), rate=1.0)  # exactly one patch
        _, valid = vit.forward_packed(np.ones((32, 32)) * mask, mask)
        assert valid.sum() == 1


class TestPredictBetweenForwardAndBackward:
    """A predict call between a training forward and its backward leaves
    the backward's gradients bitwise as they are without it."""

    @pytest.mark.parametrize(
        "predict", ["predict_packed_batch", "predict_batch", "predict_packed"]
    )
    def test_vit_gradients_unchanged(self, predict):
        rng = np.random.default_rng(4)
        frames = rng.random((2, 32, 32))
        masks = rng.random((2, 32, 32)) < 0.3
        other = rng.random((5, 32, 32))
        other_masks = rng.random((5, 32, 32)) < 0.1
        grad = rng.standard_normal((2, 32, 32, ViTConfig().num_classes))
        runs = []
        for interleave in (False, True):
            net = ViTSegmenter(
                ViTConfig(height=32, width=32, patch=8, dim=24, heads=3,
                          depth=2, decoder_depth=1),
                np.random.default_rng(0),
            )
            net.forward(frames * masks, masks)
            if interleave:
                call = getattr(net, predict)
                if predict == "predict_packed":
                    call(other[0] * other_masks[0], other_masks[0])
                else:
                    call(other * other_masks, other_masks)
            grad_in = net.backward(grad)
            runs.append([grad_in] + [p.grad.copy() for p in net.parameters()])
        for a, b in zip(*runs):
            assert a.tobytes() == b.tobytes()

    def test_roi_gradients_unchanged(self):
        from repro.sampling.roi import ROIPredictor

        rng = np.random.default_rng(5)
        x = rng.random((2, 2, 32, 32))
        grad = rng.standard_normal((2, 4))
        runs = []
        for interleave in (False, True):
            roi = ROIPredictor(32, 32, np.random.default_rng(0))
            roi.forward(x)
            if interleave:
                roi.predict_box_batch(
                    [rng.random((32, 32)) > 0.5 for _ in range(3)], [None] * 3
                )
            grad_in = roi.backward(grad)
            runs.append([grad_in] + [p.grad.copy() for p in roi.parameters()])
        for a, b in zip(*runs):
            assert a.tobytes() == b.tobytes()
