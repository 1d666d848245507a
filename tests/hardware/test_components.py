"""Tests for hardware component models: scaling, MIPI, NPU, DRAM, area."""

import numpy as np
import pytest

from repro.hardware import (
    AreaModel,
    LPDDR3Model,
    MipiLink,
    STANDARD_RESOLUTIONS,
    LATENCY_REQUIREMENT_S,
    host_npu,
    in_sensor_npu,
    scaling,
)
from repro.hardware.npu import SystolicNPU


class TestScaling:
    def test_reference_node_is_unity(self):
        assert scaling.energy_factor(16) == pytest.approx(1.0)
        assert scaling.delay_factor(16) == pytest.approx(1.0)
        assert scaling.leakage_factor(16) == pytest.approx(1.0)

    def test_energy_monotone_in_node(self):
        nodes = [7, 16, 22, 28, 40, 65, 90, 130]
        factors = [scaling.energy_factor(n) for n in nodes]
        assert all(a < b for a, b in zip(factors, factors[1:]))

    def test_interpolated_node_between_neighbors(self):
        mid = scaling.energy_factor(50)
        assert scaling.energy_factor(40) < mid < scaling.energy_factor(65)

    def test_scale_energy_roundtrip(self):
        assert scaling.scale_energy(2.0, 16) == pytest.approx(2.0)
        assert scaling.scale_energy(1.0, 65) > 5.0

    def test_rejects_nonpositive_node(self):
        with pytest.raises(ValueError):
            scaling.energy_factor(0)

    def test_7nm_cheaper_than_22nm(self):
        """The Fig. 13 argument: host at 7 nm beats in-sensor 22 nm per op."""
        assert scaling.energy_factor(7) < scaling.energy_factor(22) / 2


class TestMipi:
    def test_energy_per_byte_is_paper_value(self):
        link = MipiLink()
        assert link.transfer_energy(1) == pytest.approx(100e-12)

    def test_4k_latency_matches_fig3(self):
        """Fig. 3 anchor: 4K transfer (~22 ms) exceeds the 15 ms budget."""
        link = MipiLink()
        latency = link.frame_latency(*STANDARD_RESOLUTIONS["4K"])
        assert 18e-3 < latency < 26e-3
        assert latency > LATENCY_REQUIREMENT_S

    def test_720p_within_budget(self):
        link = MipiLink()
        assert link.frame_latency(*STANDARD_RESOLUTIONS["720P"]) < (
            LATENCY_REQUIREMENT_S
        )

    def test_latency_monotone_in_resolution(self):
        link = MipiLink()
        latencies = [
            link.frame_latency(*STANDARD_RESOLUTIONS[k])
            for k in ("720P", "1080P", "2K", "4K", "8K")
        ]
        assert all(a < b for a, b in zip(latencies, latencies[1:]))

    def test_frame_bytes_ten_bit_packing(self):
        link = MipiLink()
        assert link.frame_bytes(4) == 5  # 40 bits -> 5 bytes

    def test_negative_counts_raise(self):
        link = MipiLink()
        with pytest.raises(ValueError):
            link.frame_bytes(-1)
        with pytest.raises(ValueError):
            link.transfer_energy(-1)


class TestNPU:
    def test_paper_configurations(self):
        host = host_npu()
        sensor = in_sensor_npu()
        assert host.peak_macs_per_s == 32 * 32 * 1e9
        assert sensor.peak_macs_per_s == 8 * 8 * 0.5e9
        assert host.buffer_kb == 2048 and sensor.buffer_kb == 512

    def test_latency_scales_with_macs(self):
        npu = host_npu()
        assert npu.compute_latency(2_000_000) == pytest.approx(
            2 * npu.compute_latency(1_000_000)
        )

    def test_energy_cheaper_at_7nm_than_22nm(self):
        macs = 10_000_000
        assert host_npu(7).mac_energy(macs) < host_npu(22).mac_energy(macs)

    def test_leakage_positive(self):
        assert host_npu().leakage_power() > 0

    def test_workload_energy_components(self):
        npu = in_sensor_npu()
        total = npu.workload_energy(1_000_000, 10_000, active_time_s=1e-3)
        assert total > npu.mac_energy(1_000_000)

    def test_validation(self):
        with pytest.raises(ValueError):
            SystolicNPU(0, 8, 1e9, 64, 16)
        with pytest.raises(ValueError):
            SystolicNPU(8, 8, 1e9, 64, 16, utilization=0.0)
        with pytest.raises(ValueError):
            host_npu().compute_latency(-1)


class TestDram:
    def test_traffic_energy_linear(self):
        dram = LPDDR3Model()
        assert dram.traffic_energy(2000) == pytest.approx(
            2 * dram.traffic_energy(1000)
        )

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            LPDDR3Model().traffic_energy(-1)


class TestArea:
    def test_paper_numbers(self):
        """Sec. VI-D: 6.4 / 0.4 / 0.1 mm^2 at 640x400, 5 um pitch."""
        report = AreaModel().estimate(400, 640)
        assert report.pixel_array_mm2 == pytest.approx(6.4, rel=0.01)
        assert report.in_sensor_npu_mm2 == 0.4
        assert report.output_buffer_mm2 == 0.1

    def test_npu_overhead_near_paper(self):
        report = AreaModel().estimate(400, 640)
        assert report.npu_overhead_fraction == pytest.approx(0.058, abs=0.01)

    def test_augmentation_is_small(self):
        """The per-pixel augmentation (~12 SRAM cells) is tiny vs the pixel."""
        report = AreaModel().estimate(400, 640)
        pixel_um2 = 5.0 * 5.0
        assert report.augmentation_per_pixel_um2 < 0.1 * pixel_um2

    def test_host_decoder_negligible(self):
        assert AreaModel().host_rle_decoder_fraction() < 0.001

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            AreaModel().estimate(0, 640)
