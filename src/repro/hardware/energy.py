"""System-level energy model: the four sensor-SoC designs of Fig. 13.

Variants (Sec. V, "System Variants"):

* ``NPU-Full`` — conventional pipeline: the sensor digitizes and transmits
  the full frame; the host segments the full frame.
* ``NPU-ROI`` — same sensor; the host runs eventification + the ROI DNN
  and segments only the ROI.
* ``S+NPU``   — sparse sampling inside the sensor but in the *digital*
  domain: the full frame is still digitized into an in-sensor SRAM frame
  buffer (whose leakage cannot be power-gated, because it must retain the
  previous frame for eventification), the ROI DNN runs on the in-sensor
  NPU, and only sampled pixels cross MIPI.
* ``BlissCam`` — the proposed design: analog frame memory + analog
  eventification, so only *sampled* pixels are ever digitized; the ROI DNN
  runs in-sensor; RLE-compressed sampled pixels cross MIPI; the host
  receives ~5 % of the pixels.

What each variant moves per frame is counted once, by :func:`traffic`;
this model and :class:`~repro.hardware.timing.TimingModel` only price that
record.  Every term is built from component models (ADC, pixel circuit,
MIPI, NPU, DRAM, process scaling), so the sensitivity studies (frame rate,
Fig. 16; process node, Fig. 17) fall out of the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.dram import LPDDR3Model
from repro.hardware.mipi import MipiLink
from repro.hardware.npu import SystolicNPU, host_npu, in_sensor_npu
from repro.hardware.scaling import scale_leakage
from repro.hardware.sensor.adc import SingleSlopeADC
from repro.hardware.sensor.pixel import BLISSCAM_DPS
from repro.synth.noise import exposure_for_fps

__all__ = [
    "WorkloadProfile",
    "Traffic",
    "traffic",
    "ProcessNodes",
    "EnergyBreakdown",
    "SystemEnergyModel",
    "VARIANTS",
]

VARIANTS = ("NPU-Full", "NPU-ROI", "S+NPU", "BlissCam")

#: SRAM leakage per KB at the 16 nm reference (frame buffer, un-gateable).
_FRAME_BUFFER_LEAKAGE_16NM_W_PER_KB = 9.5e-6
#: Sensor housekeeping static power: row drivers, bias DACs, PLL (all variants).
_SENSOR_MISC_POWER_W = 1e-3
#: Host-system background power attributable to the eye-tracking service
#: (SoC rails kept up, DRAM standby share, interconnect).  Scales with the
#: variant's working set: full-frame pipelines keep more memory powered.
_HOST_IDLE_POWER_W = {
    "NPU-Full": 12e-3,
    "NPU-ROI": 6e-3,
    "S+NPU": 6.5e-3,
    "BlissCam": 3.5e-3,
}
#: Digital eventification cost per pixel (subtract+compare) at 16 nm.
_DIGITAL_EVENT_16NM_J_PER_PIXEL = 0.35e-12
#: RLE encoder energy per ROI pixel streamed through it, at 16 nm.
_RLE_16NM_J_PER_PIXEL = 0.05e-12
#: SRAM RNG power-up energy per pixel (10 cells) at 22 nm-equivalent.
_RNG_J_PER_PIXEL = 0.02e-12


@dataclass(frozen=True)
class WorkloadProfile:
    """Per-frame statistics that drive the energy/latency models.

    Defaults correspond to the paper's operating point: a 640x400 sensor,
    ROI of ~34 k pixels (13.4 % of the frame), 4.85 % of pixels sampled
    and transmitted for a 20.6x compression -- ~36 % in-ROI sampling
    (0.0485 / 0.134) -- and 10.8 % of ViT tokens valid.  The benchmark
    harness can overwrite any field with *measured* statistics from the
    functional pipeline.
    """

    height: int = 400
    width: int = 640
    #: Fraction of the frame inside the predicted ROI.
    roi_fraction: float = 0.134
    #: Fraction of frame pixels actually sampled (read out + transmitted).
    sampled_fraction: float = 0.0485
    #: Fraction of ViT tokens containing at least one sampled pixel.
    valid_token_fraction: float = 0.108
    #: Segmentation MACs on a dense full frame.
    seg_macs_dense: int = 3_000_000_000
    #: ROI prediction DNN MACs (paper: 2.1e7).
    roi_macs: int = 21_000_000
    #: Host DRAM traffic for dense-frame segmentation (weights + activations).
    dram_bytes_dense: int = 1_500_000
    #: RLE encoded size relative to raw sampled bytes.  At the operating
    #: point's ~36 % in-ROI density the runs are short, so the encoded
    #: stream is ~1.9x the raw sampled payload (verified against the
    #: actual codec in tests/hardware/test_cross_model_consistency.py);
    #: still ~5x smaller than transmitting the whole ROI.
    rle_overhead: float = 1.9
    #: Bytes of the fed-back segmentation map (2-bit classes, RLE'd).
    seg_map_bytes: int = 12_000
    #: Gaze regression cost on the host (tiny relative to segmentation).
    gaze_macs: int = 2_000_000

    @property
    def num_pixels(self) -> int:
        return self.height * self.width


@dataclass(frozen=True)
class Traffic:
    """What one variant moves per frame: the counts both cost models price.

    :func:`traffic` builds it; :class:`SystemEnergyModel` turns it into
    joules and :class:`~repro.hardware.timing.TimingModel` into seconds.
    """

    #: Pixels exposed: the whole array, in every variant.
    exposed: int
    #: Pixels the ADCs convert.
    converted: int
    #: In-ROI pixels the sparse readout skips without converting.
    skipped: int
    #: Columns the readout scans: the frame's, or the ROI's alone.
    readout_columns: int
    #: Where the frame difference is taken: ``none``, ``host``,
    #: ``sensor`` (digital, over an SRAM frame buffer) or ``pixel``
    #: (analog, over the in-pixel frame memory).
    eventify: str
    #: Where the ROI DNN runs: ``none``, ``host`` or ``sensor``.  An
    #: in-sensor ROI also means in-sensor sampling.
    roi_dnn: str
    #: Bytes sensor -> host over MIPI: the full frame or the RLE'd sample.
    mipi_up_bytes: int
    #: Bytes host -> sensor over MIPI: the seg-map backhaul.
    mipi_down_bytes: int
    #: ROI pixels streamed through the RLE encoder.
    rle_pixels: int
    #: Segmentation MACs on the host NPU.
    seg_macs: int
    #: Host DRAM bytes of segmentation; scales with its working set.
    dram_bytes: int


def traffic(variant: str, profile: WorkloadProfile) -> Traffic:
    """Count one variant's per-frame data movement (the Sec. V designs)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    # Where each design takes the frame difference and runs its ROI DNN.
    eventify, roi_dnn = {
        "NPU-Full": ("none", "none"),
        "NPU-ROI": ("host", "host"),
        "S+NPU": ("sensor", "sensor"),
        "BlissCam": ("pixel", "sensor"),
    }[variant]
    in_sensor = roi_dnn == "sensor"
    # Only the analog frame memory spares the ADCs: digital
    # eventification needs every pixel digitized.
    analog = eventify == "pixel"
    n = profile.num_pixels
    in_roi = int(n * profile.roi_fraction)
    sampled = int(n * profile.sampled_fraction)
    if in_sensor:
        seg_macs = int(profile.seg_macs_dense * profile.valid_token_fraction)
        # ROI aspect follows the frame.
        columns = max(1, int(round(profile.width * profile.roi_fraction**0.5)))
        mipi_up = int(MipiLink().frame_bytes(sampled) * profile.rle_overhead)
    else:
        seg_macs = profile.seg_macs_dense
        if roi_dnn == "host":
            seg_macs = int(seg_macs * profile.roi_fraction)
        columns = profile.width
        mipi_up = MipiLink().frame_bytes(n)
    return Traffic(
        exposed=n,
        converted=sampled if analog else n,
        skipped=max(0, in_roi - sampled) if analog else 0,
        readout_columns=columns,
        eventify=eventify,
        roi_dnn=roi_dnn,
        mipi_up_bytes=mipi_up,
        mipi_down_bytes=profile.seg_map_bytes if in_sensor else 0,
        rle_pixels=in_roi if in_sensor else 0,
        seg_macs=seg_macs,
        dram_bytes=int(profile.dram_bytes_dense * seg_macs / profile.seg_macs_dense),
    )


@dataclass(frozen=True)
class ProcessNodes:
    """Technology nodes of the three dies (Fig. 13/14 annotations)."""

    sensor_top_nm: float = 65.0
    sensor_logic_nm: float = 22.0
    host_nm: float = 7.0


@dataclass
class EnergyBreakdown:
    """Per-frame energy (joules) dissected by component (Fig. 13 stacks)."""

    variant: str
    components: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        # Sorted operands (REP104): the total must not depend on the
        # order components were inserted by the model that built them.
        return sum(v for _, v in sorted(self.components.items()))

    @property
    def sensor_side(self) -> float:
        """Everything dissipated on the sensor die (incl. in-sensor NPU)."""
        keys = (
            "exposure",
            "sensor_misc",
            "readout",
            "eventification",
            "analog_memory",
            "frame_buffer",
            "roi_dnn_sensor",
            "rng",
            "rle",
        )
        return sum(self.components.get(k, 0.0) for k in keys)

    @property
    def off_sensor(self) -> float:
        keys = (
            "seg_npu",
            "host_buffer",
            "dram",
            "roi_dnn_host",
            "gaze",
            "host_idle",
        )
        return sum(self.components.get(k, 0.0) for k in keys)

    def fraction(self, key: str) -> float:
        return self.components.get(key, 0.0) / self.total


class SystemEnergyModel:
    """Prices each variant's :func:`traffic` as per-frame energy."""

    def __init__(self, nodes: ProcessNodes | None = None):
        self.nodes = nodes or ProcessNodes()
        self.mipi = MipiLink()
        self.dram = LPDDR3Model()
        self.adc = SingleSlopeADC()
        self.pixel = BLISSCAM_DPS
        self.host = host_npu(self.nodes.host_nm)
        self.sensor_npu = in_sensor_npu(self.nodes.sensor_logic_nm)

    def _roi_dnn_energy(self, npu: SystolicNPU, profile: WorkloadProfile) -> float:
        """ROI DNN on the given NPU, SRAM gated to the DNN's runtime."""
        time = npu.compute_latency(profile.roi_macs)
        return npu.workload_energy(
            profile.roi_macs, profile.roi_macs // 64, active_time_s=time
        )

    def frame_energy(
        self, variant: str, profile: WorkloadProfile, fps: float
    ) -> EnergyBreakdown:
        """Per-frame energy breakdown for one variant at one frame rate."""
        t = traffic(variant, profile)
        if fps <= 0:
            raise ValueError(f"fps must be positive: {fps}")
        n = t.exposed
        exposure = exposure_for_fps(fps)
        frame_period = 1.0 / fps
        seg_time = self.host.compute_latency(t.seg_macs)
        parts: dict[str, float] = {
            "exposure": self.pixel.exposure_energy(n, exposure),
            "sensor_misc": _SENSOR_MISC_POWER_W * frame_period,
            "host_idle": _HOST_IDLE_POWER_W[variant] * frame_period,
            "readout": self.adc.readout_energy(t.converted, t.skipped),
            "mipi": self.mipi.transfer_energy(t.mipi_up_bytes),
            # Segmentation + gaze on the host NPU, buffer gated to active
            # time; ~64 MACs per scratchpad byte touched.
            "seg_npu": self.host.mac_energy(t.seg_macs)
            + self.host.leakage_power() * seg_time,
            "host_buffer": self.host.buffer_energy(t.seg_macs // 64),
            "gaze": self.host.mac_energy(profile.gaze_macs),
            "dram": self.dram.traffic_energy(t.dram_bytes),
        }
        if t.roi_dnn == "host":
            parts["roi_dnn_host"] = self._roi_dnn_energy(self.host, profile)
        elif t.roi_dnn == "sensor":
            parts["roi_dnn_sensor"] = self._roi_dnn_energy(self.sensor_npu, profile)
            parts["rng"] = n * _RNG_J_PER_PIXEL
            parts["rle"] = t.rle_pixels * _RLE_16NM_J_PER_PIXEL
            parts["seg_map_backhaul"] = self.mipi.transfer_energy(t.mipi_down_bytes)
        if t.eventify == "host":
            # Digital diff on the host at 7 nm, booked with its ROI DNN.
            parts["roi_dnn_host"] += n * _DIGITAL_EVENT_16NM_J_PER_PIXEL * 0.44
        elif t.eventify == "sensor":
            parts["eventification"] = (
                n
                * _DIGITAL_EVENT_16NM_J_PER_PIXEL
                * scale_leakage(1.0, self.nodes.sensor_logic_nm)
            )
            # The digital frame buffer (10 bits/pixel) holds the previous
            # frame for eventification, so it is never power-gated.
            size_kb = n * 10 / 8 / 1024
            parts["frame_buffer"] = (
                size_kb
                * scale_leakage(
                    _FRAME_BUFFER_LEAKAGE_16NM_W_PER_KB, self.nodes.sensor_logic_nm
                )
                / fps
            )
        elif t.eventify == "pixel":
            parts["eventification"] = self.pixel.eventification_energy(n)
            parts["analog_memory"] = self.pixel.analog_memory_energy(n, exposure)
        return EnergyBreakdown(variant=variant, components=parts)

    def savings_over(
        self,
        baseline: str,
        variant: str,
        profile: WorkloadProfile,
        fps: float,
    ) -> float:
        """Energy-reduction factor of ``variant`` relative to ``baseline``."""
        base = self.frame_energy(baseline, profile, fps).total
        ours = self.frame_energy(variant, profile, fps).total
        return base / ours
