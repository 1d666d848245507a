"""Tests for the system energy and timing models against paper claims."""

import pytest

from repro.hardware import (
    MipiLink,
    ProcessNodes,
    SystemEnergyModel,
    TimingModel,
    VARIANTS,
    WorkloadProfile,
    traffic,
)


@pytest.fixture(scope="module")
def model():
    return SystemEnergyModel()


@pytest.fixture(scope="module")
def profile():
    return WorkloadProfile()


@pytest.fixture(scope="module")
def timing():
    return TimingModel()


class TestEnergyModel:
    def test_variant_ordering_at_120fps(self, model, profile):
        """Fig. 13: NPU-Full > S+NPU > NPU-ROI > BlissCam."""
        totals = {
            v: model.frame_energy(v, profile, 120).total for v in VARIANTS
        }
        assert totals["NPU-Full"] > totals["S+NPU"] > totals["NPU-ROI"]
        assert totals["NPU-ROI"] > totals["BlissCam"]

    def test_blisscam_saving_magnitude(self, model, profile):
        """Paper: 4.0x over NPU-Full at 120 FPS (we land in 3.5-6x)."""
        saving = model.savings_over("NPU-Full", "BlissCam", profile, 120)
        assert 3.5 < saving < 6.0

    def test_snpu_worse_than_npu_roi(self, model, profile):
        """Paper: S+NPU is ~1.1x NPU-ROI, driven by frame-buffer leakage."""
        s = model.frame_energy("S+NPU", profile, 120).total
        r = model.frame_energy("NPU-ROI", profile, 120).total
        assert 1.02 < s / r < 1.4

    def test_frame_buffer_is_the_snpu_penalty(self, model, profile):
        e = model.frame_energy("S+NPU", profile, 120)
        assert e.components["frame_buffer"] > e.components["roi_dnn_sensor"]

    def test_off_sensor_dominates_npu_full(self, model, profile):
        """Paper: off-sensor work is ~60 % of NPU-Full energy."""
        e = model.frame_energy("NPU-Full", profile, 120)
        assert 0.5 < e.off_sensor / e.total < 0.85

    def test_readout_dominates_conventional_sensor(self, model, profile):
        """Fig. 4: readout is ~2/3 of conventional sensor power."""
        e = model.frame_energy("NPU-Full", profile, 120)
        assert e.components["readout"] / e.sensor_side > 0.55

    def test_blisscam_overheads_are_small(self, model, profile):
        """Sec. VI-B: seg-map backhaul ~0.6 %, RLE ~0.04 % of total."""
        e = model.frame_energy("BlissCam", profile, 120)
        assert e.fraction("seg_map_backhaul") < 0.03
        assert e.fraction("rle") < 0.002

    def test_saving_grows_with_frame_rate(self, model, profile):
        """Fig. 16: saving grows from ~3.6x at 30 FPS to ~6.7x at 500 FPS."""
        savings = [
            model.savings_over("NPU-Full", "BlissCam", profile, fps)
            for fps in (30, 60, 120, 240, 500)
        ]
        assert all(a < b for a, b in zip(savings, savings[1:]))
        assert savings[0] < 4.2
        assert savings[-1] > 5.5

    def test_blisscam_readout_scales_with_sampling(self, model, profile):
        full = model.frame_energy("NPU-Full", profile, 120).components["readout"]
        bliss = model.frame_energy("BlissCam", profile, 120).components["readout"]
        assert bliss < 0.1 * full

    def test_process_node_sweep_direction(self, model, profile):
        """Fig. 17: older logic nodes shrink the saving; and a 7 nm SoC is
        more sensitive to the sensor logic node than a 22 nm SoC."""
        def saving(logic_nm, host_nm):
            m = SystemEnergyModel(
                ProcessNodes(sensor_logic_nm=logic_nm, host_nm=host_nm)
            )
            return m.savings_over("NPU-Full", "BlissCam", profile, 120)

        s7 = [saving(n, 7) for n in (16, 22, 40, 65)]
        assert all(a > b for a, b in zip(s7, s7[1:]))
        spread7 = s7[0] - s7[-1]
        s22 = [saving(n, 22) for n in (16, 22, 40, 65)]
        spread22 = s22[0] - s22[-1]
        assert spread7 > spread22

    def test_unknown_variant_raises(self, model, profile):
        with pytest.raises(ValueError):
            model.frame_energy("bogus", profile, 120)
        with pytest.raises(ValueError):
            model.frame_energy("BlissCam", profile, 0)

    def test_breakdown_total_is_sum(self, model, profile):
        e = model.frame_energy("BlissCam", profile, 120)
        assert e.total == pytest.approx(
            sum(v for _, v in sorted(e.components.items()))
        )

    def test_profile_seg_macs_scaling(self, profile):
        assert traffic("NPU-Full", profile).seg_macs == profile.seg_macs_dense
        assert traffic("BlissCam", profile).seg_macs < 0.15 * profile.seg_macs_dense
        with pytest.raises(ValueError):
            traffic("nope", profile)


class TestTraffic:
    """The per-frame counts both cost models price."""

    @pytest.mark.parametrize("variant", ["NPU-Full", "NPU-ROI"])
    def test_conventional_sensor_sends_the_whole_frame(self, profile, variant):
        n = profile.num_pixels
        t = traffic(variant, profile)
        assert t.exposed == t.converted == n
        assert t.skipped == 0
        assert t.mipi_up_bytes == MipiLink().frame_bytes(n)
        assert t.mipi_down_bytes == 0
        assert t.rle_pixels == 0
        assert t.readout_columns == profile.width

    def test_roi_dnn_location(self, profile):
        where = {v: (traffic(v, profile).roi_dnn, traffic(v, profile).eventify)
                 for v in VARIANTS}
        assert where == {
            "NPU-Full": ("none", "none"),
            "NPU-ROI": ("host", "host"),
            "S+NPU": ("sensor", "sensor"),
            "BlissCam": ("sensor", "pixel"),
        }

    def test_snpu_converts_all_and_sends_the_rled_sample(self, profile):
        n = profile.num_pixels
        t = traffic("S+NPU", profile)
        sampled = int(n * profile.sampled_fraction)
        assert t.converted == n
        assert t.skipped == 0
        assert t.mipi_up_bytes == int(
            MipiLink().frame_bytes(sampled) * profile.rle_overhead
        )
        assert t.mipi_down_bytes == profile.seg_map_bytes
        assert t.rle_pixels == int(n * profile.roi_fraction)

    def test_blisscam_converts_only_the_sample(self, profile):
        n = profile.num_pixels
        t = traffic("BlissCam", profile)
        converted = int(n * profile.sampled_fraction)
        assert t.converted == converted
        assert t.skipped == int(n * profile.roi_fraction) - converted
        assert t.mipi_up_bytes == traffic("S+NPU", profile).mipi_up_bytes
        assert t.mipi_down_bytes == profile.seg_map_bytes
        assert t.readout_columns < profile.width

    def test_dram_follows_the_segmentation_working_set(self, profile):
        full = traffic("NPU-Full", profile)
        roi = traffic("NPU-ROI", profile)
        assert full.dram_bytes == profile.dram_bytes_dense
        assert roi.dram_bytes == int(
            profile.dram_bytes_dense * roi.seg_macs / profile.seg_macs_dense
        )

    def test_both_models_refuse_an_unknown_variant_alike(self, profile):
        messages = []
        for price in (
            SystemEnergyModel().frame_energy,
            TimingModel().tracking_latency,
        ):
            with pytest.raises(ValueError) as err:
                price("bogus", profile, 120)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "unknown variant 'bogus'" in messages[0]


class TestTimingModel:
    def test_latency_reduction_matches_paper(self, timing, profile):
        """Paper: 1.4x end-to-end latency reduction at 120 FPS."""
        full = timing.tracking_latency("NPU-Full", profile, 120).total
        bliss = timing.tracking_latency("BlissCam", profile, 120).total
        assert 1.25 < full / bliss < 1.7

    def test_segmentation_speedup(self, timing, profile):
        """Paper: segmentation runs 7.7x faster on 10.8 % of the pixels."""
        full = timing.tracking_latency("NPU-Full", profile, 120)
        bliss = timing.tracking_latency("BlissCam", profile, 120)
        speedup = full.stages["segmentation"] / bliss.stages["segmentation"]
        assert 6.0 < speedup < 11.0

    def test_npu_full_near_15ms(self, timing, profile):
        """Sec. II-C: conventional trackers sit around 15 ms latency."""
        total = timing.tracking_latency("NPU-Full", profile, 120).total
        assert 12e-3 < total < 17e-3

    def test_exposure_reduction_small(self, timing, profile):
        """Paper: BlissCam shrinks exposure by only ~1.8 %."""
        reduction = timing.exposure_reduction("BlissCam", profile, 120)
        assert 0.0 < reduction < 0.06

    def test_exposure_dominates_all_variants(self, timing, profile):
        for variant in VARIANTS:
            lat = timing.tracking_latency(variant, profile, 120)
            assert lat.stages["exposure"] > 0.4 * lat.total

    def test_schedule_feasible_at_120(self, timing, profile):
        for variant in VARIANTS:
            assert timing.schedule_feasible(variant, profile, 120)

    def test_schedule_infeasible_at_extreme_fps(self, timing, profile):
        """NPU-Full's full-frame segmentation cannot keep up at 500 FPS."""
        assert not timing.schedule_feasible("NPU-Full", profile, 500)

    def test_blisscam_feasible_at_500(self, timing, profile):
        assert timing.schedule_feasible("BlissCam", profile, 500)

    def test_in_sensor_overhead_much_smaller_than_exposure(self, timing, profile):
        lat = timing.tracking_latency("BlissCam", profile, 120)
        assert lat.in_sensor_overhead < 0.2 * lat.stages["exposure"]

    def test_bad_inputs_raise(self, timing, profile):
        with pytest.raises(ValueError):
            timing.tracking_latency("bogus", profile, 120)
        with pytest.raises(ValueError):
            timing.tracking_latency("BlissCam", profile, 0)
