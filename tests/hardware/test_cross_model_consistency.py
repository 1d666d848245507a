"""Cross-model consistency: the independent hardware models must agree.

The energy/latency models use summary parameters (RLE overhead, frame
bytes, stage times); the functional datapath (RLE codec, packetizer,
sensor) computes the same quantities bottom-up.  These tests
pin the two views together so a change to one cannot silently diverge
from the other.
"""

import numpy as np
import pytest

from repro.hardware import MipiLink, TimingModel, WorkloadProfile
from repro.hardware.mipi_packet import CsiPacketizer
from repro.hardware.sensor import RunLengthCodec
from repro.hardware.timing import (
    ANALOG_EVENTIFICATION_S,
    SAMPLING_DECISION_S,
)


class TestRleOverheadParameter:
    def test_profile_overhead_matches_codec_on_realistic_stream(self):
        """WorkloadProfile.rle_overhead (1.9) must match what the codec
        actually produces on a paper-sized in-ROI stream at the profile's
        in-ROI density (0.0485 / 0.134, ~36 %)."""
        profile = WorkloadProfile()
        rng = np.random.default_rng(0)
        roi_pixels = int(profile.num_pixels * profile.roi_fraction)
        in_roi_rate = profile.sampled_fraction / profile.roi_fraction
        stream = np.where(
            rng.random(roi_pixels) < in_roi_rate,
            rng.integers(1, 1024, roi_pixels),
            0,
        )
        _, stats = RunLengthCodec().encode(stream)
        sampled = int(np.count_nonzero(stream))
        raw_sampled_bytes = (sampled * 10 + 7) // 8
        measured_overhead = stats.encoded_bytes / raw_sampled_bytes
        assert measured_overhead == pytest.approx(
            profile.rle_overhead, rel=0.15
        )
        # And the encoded ROI stream stays far below the raw ROI size.
        raw_roi_bytes = (roi_pixels * 10 + 7) // 8
        assert stats.encoded_bytes < 0.7 * raw_roi_bytes


class TestPacketizerVsLinkModel:
    def test_wire_bytes_close_to_frame_bytes(self):
        """CSI framing adds <1.5 % to the 10-bit payload the link model
        counts, so the energy model's byte counts are sound."""
        link = MipiLink()
        packetizer = CsiPacketizer()
        num_pixels = 12_000
        codes = np.random.default_rng(1).integers(0, 1024, num_pixels)
        packets = packetizer.pack_codes(codes)
        wire = packetizer.wire_bytes(packets)
        modelled = link.frame_bytes(num_pixels)
        assert wire == pytest.approx(modelled, rel=0.015)


class TestFrameScheduleVsTimingModel:
    def test_frame_schedule_fits_timing_model_budget(self):
        """The in-sensor stages that run serially after exposure take under
        5 % of the 120 FPS frame period, so exposure keeps the rest: the
        paper's Fig. 8 property."""
        timing = TimingModel()
        profile = WorkloadProfile()
        lat = timing.tracking_latency("BlissCam", profile, 120)
        serialized = (
            ANALOG_EVENTIFICATION_S
            + lat.stages["roi_prediction"] * 0.2  # non-overlapped part
            + SAMPLING_DECISION_S
            + timing.adc.conversion_time_s
            + lat.stages["readout"]
        )
        assert serialized < 0.05 * (1 / 120)

    def test_exposure_dominates_the_analog_schedule(self):
        timing = TimingModel()
        profile = WorkloadProfile()
        lat = timing.tracking_latency("BlissCam", profile, 120)
        non_exposure = (
            ANALOG_EVENTIFICATION_S
            + SAMPLING_DECISION_S
            + timing.adc.conversion_time_s
            + lat.stages["readout"]
        )
        assert non_exposure < 0.05 * lat.stages["exposure"]


class TestSensorOutputVsLinkModel:
    def test_functional_sensor_bytes_below_model_full_frame(self):
        """The functional sensor's RLE-compressed output is far below the
        full-frame bytes the NPU-Full variant's model charges."""
        from repro.hardware.sensor import BlissCamSensor

        rng = np.random.default_rng(2)
        link = MipiLink()
        sensor = BlissCamSensor(
            64, 64,
            roi_predictor=lambda e, s: np.array([0.3, 0.3, 0.7, 0.7]),
            sampling_rate=0.2,
            seed=0,
        )
        sensor.capture(rng.random((64, 64)), None)
        out = sensor.capture(rng.random((64, 64)), None)
        full_frame = link.frame_bytes(64 * 64)
        assert out.transmitted_bytes < 0.2 * full_frame
