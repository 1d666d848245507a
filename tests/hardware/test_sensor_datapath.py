"""Tests for the sensor datapath: SRAM RNG, RLE, ADC, readout, composition."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.sensor import (
    BLISSCAM_DPS,
    BlissCamSensor,
    RunLengthCodec,
    SingleSlopeADC,
    SparseReadout,
    SramPowerUpRNG,
)
from repro.hardware.sensor.sram_rng import BITS_PER_PIXEL, popcount
from repro.nn.functional import stack_rows
from repro.sampling.roi import boxes_mask


def power_up_bits(rng):
    """The retired ``SramPowerUpRNG.power_up_bits``: one float32 draw of
    the whole cell array, compared with the cell biases."""
    draw = rng.rng.random((rng.num_pixels, BITS_PER_PIXEL), dtype=np.float32)
    return draw < rng._bias_f32


class TestSramRNG:
    def test_popcount_range(self):
        rng = SramPowerUpRNG(256, seed=0)
        pop = rng.power_up_popcounts()
        assert pop.shape == (256,)
        assert pop.min() >= 0 and pop.max() <= 10

    def test_calibration_lut_matches_sum_reference(self):
        rng = SramPowerUpRNG(1024, seed=1)
        reference = copy.deepcopy(rng)
        counts = np.zeros(16)
        for _ in range(8):
            pop = power_up_bits(reference).sum(axis=-1)
            for theta in range(16):
                counts[theta] += np.count_nonzero(pop >= theta)
        assert rng.calibrate(cycles=8).rate_for_theta == tuple(
            float(c / (8 * 1024)) for c in counts
        )

    def test_calibration_lut_monotone(self):
        rng = SramPowerUpRNG(1024, seed=1)
        lut = rng.calibrate(cycles=32)
        rates = lut.rate_for_theta
        assert rates[0] == pytest.approx(1.0)
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert rates[11] == 0.0  # popcount cannot reach 11

    def test_threshold_achieves_requested_rate(self):
        """The calibration -> LUT -> theta loop controls the sample rate."""
        rng = SramPowerUpRNG(4096, seed=2)
        lut = rng.calibrate(cycles=64)
        theta = lut.theta_for_rate(0.2)
        achieved = np.mean(
            [(rng.power_up_popcounts() >= theta).mean() for _ in range(16)]
        )
        assert achieved <= 0.25  # never exceeds target band
        assert achieved > 0.02  # and is not degenerate

    def test_spatial_decorrelation(self):
        """Neighbouring pixels' decisions are uncorrelated (differential
        signaling of the cross-coupled pair, Sec. IV-C)."""
        rng = SramPowerUpRNG(4096, variation=0.1, seed=3)
        lut = rng.calibrate(cycles=32)
        theta = lut.theta_for_rate(0.5)
        mask = (rng.power_up_popcounts() >= theta).reshape(64, 64).astype(float)
        a = mask[:, :-1].ravel() - mask[:, :-1].mean()
        b = mask[:, 1:].ravel() - mask[:, 1:].mean()
        corr = float(np.sum(a * b) / np.sqrt(np.sum(a * a) * np.sum(b * b)))
        assert abs(corr) < 0.1

    def test_masks_differ_across_frames(self):
        rng = SramPowerUpRNG(1024, seed=4)
        lut = rng.calibrate()
        theta = lut.theta_for_rate(0.3)
        m1 = rng.power_up_popcounts() >= theta
        m2 = rng.power_up_popcounts() >= theta
        assert (m1 != m2).any()

    def test_validation(self):
        with pytest.raises(ValueError):
            SramPowerUpRNG(0)
        with pytest.raises(ValueError):
            SramPowerUpRNG(16, variation=0.6)
        lut = SramPowerUpRNG(16, seed=0).calibrate(cycles=4)
        with pytest.raises(ValueError):
            lut.theta_for_rate(1.5)


class TestRLE:
    def test_paper_example(self):
        """Fig. 11: 1110000000 -> three ones then seven zeros."""
        codec = RunLengthCodec()
        stream = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        tokens, stats = codec.encode(stream)
        assert tokens == [("lit", 1), ("lit", 1), ("lit", 1), ("run", 7)]
        assert stats.literal_tokens == 3 and stats.run_tokens == 1

    @given(
        data=st.lists(st.integers(0, 1023), min_size=0, max_size=300),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_exact(self, data):
        codec = RunLengthCodec()
        stream = np.array(data, dtype=np.int64)
        tokens, _ = codec.encode(stream)
        np.testing.assert_array_equal(codec.decode(tokens), stream)

    def test_long_run_splits(self):
        codec = RunLengthCodec()
        stream = np.zeros(10000, dtype=np.int64)
        tokens, stats = codec.encode(stream)
        assert stats.run_tokens == 3  # 4095 + 4095 + 1810
        np.testing.assert_array_equal(codec.decode(tokens), stream)

    def test_sparse_stream_compresses(self):
        """~20 % density (the paper's in-ROI rate) compresses well."""
        rng = np.random.default_rng(5)
        stream = np.where(rng.random(10000) < 0.2, rng.integers(1, 1024, 10000), 0)
        _, stats = RunLengthCodec().encode(stream)
        assert stats.compression_ratio > 1.5

    def test_dense_stream_no_blowup(self):
        rng = np.random.default_rng(6)
        stream = rng.integers(1, 1024, size=1000)
        _, stats = RunLengthCodec().encode(stream)
        # Literals cost 11 bits vs 10 raw: at most 10 % expansion.
        assert stats.encoded_bytes <= stats.raw_bytes * 1.11 + 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            RunLengthCodec().encode(np.array([2000]))
        with pytest.raises(ValueError):
            RunLengthCodec().encode(np.zeros((2, 2)))


class TestADCAndReadout:
    def test_quantize_range(self):
        adc = SingleSlopeADC()
        codes = adc.quantize(np.array([0.0, 0.5, 1.0]))
        assert list(codes) == [0, 512, 1023]

    def test_clamp_min_lsb(self):
        adc = SingleSlopeADC()
        codes = adc.quantize(np.array([0.0]), clamp_min_lsb=1)
        assert codes[0] == 1

    def test_skip_saves_energy(self):
        adc = SingleSlopeADC()
        full = adc.readout_energy(1000, 0)
        sparse = adc.readout_energy(50, 950)
        assert sparse < 0.1 * full

    @staticmethod
    def read_codes(codes, mask, box):
        """One frame of integer ``codes`` through the sensor's readout
        kernel (the ADC maps ``codes / 1023`` back to ``codes``)."""
        height, width = codes.shape
        sensor = BlissCamSensor(height, width, roi_predictor=None)
        _, (result,), _ = BlissCamSensor.readout_rank(
            [sensor], codes[None] / 1023, mask[None], [box],
            boxes_mask([box], height, width),
        )
        return result

    def test_readout_column_major_order(self):
        codes = np.arange(1, 17).reshape(4, 4)
        mask = np.ones((4, 4), dtype=bool)
        result = self.read_codes(codes, mask, (0, 0, 4, 4))
        np.testing.assert_array_equal(result.stream[:4], codes[:, 0])

    def test_readout_reconstruct_roundtrip(self):
        rng = np.random.default_rng(7)
        codes = rng.integers(1, 1024, size=(16, 16))
        mask = rng.random((16, 16)) < 0.3
        box = (2, 3, 12, 14)
        result = self.read_codes(codes, mask, box)
        rec_codes, rec_mask = SparseReadout.reconstruct(result.stream, box, (16, 16))
        inside = np.zeros((16, 16), dtype=bool)
        inside[2:12, 3:14] = True
        np.testing.assert_array_equal(rec_mask, mask & inside)
        np.testing.assert_array_equal(rec_codes[rec_mask], codes[mask & inside])

    def test_readout_counts(self):
        """Converted and skipped counts per lane of a rank's stream."""
        sampled = np.zeros(64 + 6, dtype=bool)
        sampled[0] = True
        sampled[64:67] = True
        stream = sampled.astype(np.int64)
        first, second = SparseReadout().read_rank(
            stream, sampled, [(0, 0, 8, 8), (1, 2, 3, 5)]
        )
        assert (first.converted_pixels, first.skipped_pixels) == (1, 63)
        assert (second.converted_pixels, second.skipped_pixels) == (3, 3)


class TestBlissCamSensor:
    @staticmethod
    def _center_predictor(event_map, prev_seg):
        return np.array([0.25, 0.25, 0.75, 0.75])

    def make(self, size=32, rate=0.3):
        return BlissCamSensor(
            size, size, roi_predictor=self._center_predictor,
            sampling_rate=rate, seed=0,
        )

    @pytest.mark.parametrize("width", [1, 3, 24])
    def test_stacked_popcount_matches_sum_reference(self, width):
        """The sample stage's popcount of a stacked rank equals
        ``bits.sum(axis=-1)`` and thresholds to the same masks."""
        template = self.make(size=64)
        sensors = [template.spawn(i) for i in range(width)]
        bits = stack_rows([power_up_bits(s.sram_rng) for s in sensors])
        pops = popcount(bits)
        reference = bits.sum(axis=-1)
        assert pops.dtype == np.uint8
        assert np.array_equal(pops, reference)
        for sensor, pop, ref in zip(sensors, pops, reference):
            assert np.array_equal(pop >= sensor.theta, ref >= sensor.theta)

    def test_first_frame_bootstraps(self):
        sensor = self.make()
        assert sensor.capture(np.zeros((32, 32)), None) is None

    def test_capture_pipeline(self):
        rng = np.random.default_rng(8)
        sensor = self.make()
        sensor.capture(rng.random((32, 32)), None)
        out = sensor.capture(rng.random((32, 32)), None)
        assert out is not None
        assert out.roi_box == (8, 8, 24, 24)
        assert out.sampled_pixels > 0
        # Sampling confined to the ROI.
        outside = out.sample_mask.copy()
        outside[8:24, 8:24] = False
        assert not outside.any()

    def test_host_decode_recovers_sampled_pixels(self):
        rng = np.random.default_rng(9)
        sensor = self.make()
        frame0 = rng.random((32, 32))
        frame1 = rng.random((32, 32))
        sensor.capture(frame0, None)
        out = sensor.capture(frame1, None)
        sparse, mask = sensor.host_decode(out)
        np.testing.assert_array_equal(mask, out.sample_mask)
        # Recovered values match the original within quantization error.
        err = np.abs(sparse[mask] - frame1[mask])
        assert err.max() < 2 / 1023

    def test_eventification_tracks_motion(self):
        from repro.synth import EyeGeometry, EyeRenderer, EyeState

        rng = np.random.default_rng(10)
        renderer = EyeRenderer(EyeGeometry(), 32, 32, rng)
        sensor = self.make()
        a = renderer.render(EyeState(gaze_h=0.0)).image
        b = renderer.render(EyeState(gaze_h=15.0)).image
        sensor.capture(a, None)
        out = sensor.capture(b, None)
        assert out.event_map.sum() > 0

    def test_static_scene_produces_few_events(self):
        sensor = self.make()
        frame = np.full((32, 32), 0.5)
        sensor.capture(frame, None)
        out = sensor.capture(frame, None)
        # Comparator noise may fire a stray event, but not many.
        assert out.event_map.mean() < 0.05

    def test_transmitted_bytes_below_full_frame(self):
        rng = np.random.default_rng(11)
        sensor = self.make(rate=0.2)
        sensor.capture(rng.random((32, 32)), None)
        out = sensor.capture(rng.random((32, 32)), None)
        full_frame_bytes = 32 * 32 * 10 // 8
        assert out.transmitted_bytes < full_frame_bytes

    def test_validation(self):
        with pytest.raises(ValueError):
            BlissCamSensor(32, 32, self._center_predictor, sampling_rate=0.0)
        sensor = self.make()
        with pytest.raises(ValueError):
            sensor.capture(np.zeros((8, 8)), None)
