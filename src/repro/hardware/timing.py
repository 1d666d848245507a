"""Pipeline timing: the Fig. 8 schedule, tracking latency, and FPS checks.

Tracking latency (Fig. 1) is the delay from the *start of a frame's
exposure* to the moment the gaze estimate for that frame is ready:

``latency = exposure + [in-sensor stages] + readout + MIPI + segmentation
+ gaze``.

BlissCam inserts three in-sensor stages (eventification, ROI prediction,
sampling) between exposure and readout; to keep the frame rate fixed, the
exposure is shortened by exactly the in-sensor overhead (the paper reports
a 1.8 % exposure reduction at 120 FPS).  The Fig. 8 cross-frame dependency
— frame t's ROI prediction needs frame t-1's segmentation map back from
the host — is validated by :meth:`TimingModel.schedule_feasible`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.energy import WorkloadProfile, traffic
from repro.hardware.mipi import MipiLink
from repro.hardware.npu import host_npu, in_sensor_npu
from repro.hardware.sensor.adc import SingleSlopeADC
from repro.hardware.sensor.readout import SparseReadout
from repro.synth.noise import DEFAULT_EXPOSURE_DUTY

__all__ = ["LatencyBreakdown", "TimingModel", "ANALOG_EVENTIFICATION_S"]

#: Analog eventification: two comparator decisions, array-parallel (paper: 5 us).
ANALOG_EVENTIFICATION_S = 5e-6
#: Digital eventification on the in-sensor logic (S+NPU): still parallel
#: but needs SRAM reads; slightly slower than analog.
DIGITAL_EVENTIFICATION_S = 12e-6
#: SRAM power-up + popcount + threshold compare, array-parallel.
SAMPLING_DECISION_S = 3e-6
#: Fraction of the in-sensor ROI DNN runtime that overlaps the *next*
#: frame's exposure: the global-shutter DPS top layer can expose frame t+1
#: while the bottom-layer NPU crunches frame t's event map; only the
#: analog-memory handoff (~20 % of the DNN window) serializes.  This puts
#: the exposure reduction near the paper's 1.8 % at 120 FPS.
ROI_OVERLAP_FRACTION = 0.8
#: In-sensor eventification time by where the frame difference is taken.
_EVENTIFICATION_S = {
    "sensor": DIGITAL_EVENTIFICATION_S,
    "pixel": ANALOG_EVENTIFICATION_S,
}


@dataclass
class LatencyBreakdown:
    """Per-frame latency (seconds) by stage, in pipeline order."""

    variant: str
    stages: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        # Sorted operands (REP104): the total must not depend on the
        # order stages were inserted by the model that built them.
        return sum(v for _, v in sorted(self.stages.items()))

    @property
    def in_sensor_overhead(self) -> float:
        keys = ("eventification", "roi_prediction", "sampling")
        return sum(self.stages.get(k, 0.0) for k in keys)


class TimingModel:
    """Prices each variant's :func:`traffic` as latency and checks the
    frame-rate schedule."""

    def __init__(self):
        self.mipi = MipiLink()
        self.adc = SingleSlopeADC()
        self.host = host_npu()
        self.sensor_npu = in_sensor_npu()
        self.readout = SparseReadout()

    def tracking_latency(
        self, variant: str, profile: WorkloadProfile, fps: float
    ) -> LatencyBreakdown:
        """Fig. 14: start-of-exposure to gaze-ready, per variant."""
        if fps <= 0:
            raise ValueError(f"fps must be positive: {fps}")
        t = traffic(variant, profile)
        nominal_exposure = DEFAULT_EXPOSURE_DUTY * (1.0 / fps)
        stages: dict[str, float] = {"exposure": nominal_exposure}
        if t.roi_dnn == "sensor":
            # In-sensor stages run between exposure and readout; the
            # exposure shrinks by their serialized part.
            eventify = _EVENTIFICATION_S[t.eventify]
            roi_time = self.sensor_npu.compute_latency(profile.roi_macs)
            overhead = (
                eventify
                + (1.0 - ROI_OVERLAP_FRACTION) * roi_time
                + SAMPLING_DECISION_S
            )
            stages["exposure"] = nominal_exposure - overhead
            stages["eventification"] = eventify
            stages["roi_prediction"] = roi_time
            stages["sampling"] = SAMPLING_DECISION_S
        # Column-sequential readout; per-pixel ADCs convert in parallel.
        stages["readout"] = (
            self.adc.conversion_time_s
            + self.readout.setup_time_s
            + t.readout_columns * self.readout.column_time_s
        )
        if t.roi_dnn == "host":
            # Eventification + ROI DNN on the host overlap with MIPI of the
            # *next* frame, but sit on this frame's critical path before
            # segmentation can start.
            stages["roi_prediction"] = self.host.compute_latency(profile.roi_macs)
        if stages["exposure"] <= 0:
            raise ValueError(
                f"in-sensor stages leave no exposure time at {fps} fps"
            )
        stages["mipi"] = self.mipi.transfer_latency(t.mipi_up_bytes)
        stages["segmentation"] = self.host.compute_latency(t.seg_macs)
        stages["gaze"] = self.host.compute_latency(profile.gaze_macs)
        return LatencyBreakdown(variant=variant, stages=stages)

    def exposure_reduction(
        self, variant: str, profile: WorkloadProfile, fps: float
    ) -> float:
        """Fractional exposure loss to in-sensor stages (paper: 1.8 %)."""
        lat = self.tracking_latency(variant, profile, fps)
        nominal = DEFAULT_EXPOSURE_DUTY / fps
        return 1.0 - lat.stages["exposure"] / nominal

    def schedule_feasible(
        self, variant: str, profile: WorkloadProfile, fps: float
    ) -> bool:
        """Can the Fig. 8 pipeline sustain the requested frame rate?

        Every stage must fit within a frame period, and when the ROI is
        predicted in-sensor, the previous frame's segmentation map must be
        back before this frame's ROI prediction starts: ``mipi + seg +
        backhaul <= frame_period`` (the backhaul shares the MIPI link and
        is tiny).
        """
        frame_period = 1.0 / fps
        lat = self.tracking_latency(variant, profile, fps)
        stage_fits = all(s <= frame_period for s in lat.stages.values())
        t = traffic(variant, profile)
        if t.roi_dnn != "sensor":
            return stage_fits
        dependency = (
            lat.stages["mipi"]
            + lat.stages["segmentation"]
            + self.mipi.transfer_latency(t.mipi_down_bytes)
            + lat.in_sensor_overhead
        )
        return stage_fits and dependency <= frame_period
