"""Functional BlissCam sensor: the complete in-sensor datapath (Sec. IV).

Executes, bit-accurately where it matters, the per-frame sequence of
Fig. 8/9/10/11:

1. **exposure** — the caller provides the new analog frame (already
   carrying photon shot noise from the scene simulation);
2. **eventification** — the analog frame difference against the value
   held on the AZ capacitor is compared with +/- sigma (two sequential
   comparator decisions), with comparator offset noise;
3. **ROI prediction** — a pluggable predictor (the trained
   :class:`~repro.sampling.roi.ROIPredictor`) maps the event map plus the
   fed-back previous segmentation map to a normalized box;
4. **random sampling** — the SRAM power-up RNG and the 4-bit threshold
   LUT decide, per pixel, whether to quantize;
5. **sparse readout** — sampled pixels inside the ROI are quantized by
   the SS ADC (lifted to >= 1 LSB), skipped pixels stream out as 0,
   column-major;
6. **run-length encoding** — the stream is compressed for MIPI.

The host side (:meth:`host_decode`) decodes RLE and reconstructs the
sparse frame + mask the segmentation network consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

import numpy as np

from repro.hardware.sensor.adc import SingleSlopeADC
from repro.hardware.sensor.pixel import BLISSCAM_DPS, PixelCircuit
from repro.hardware.sensor.readout import ReadoutResult, SparseReadout
from repro.hardware.sensor.rle import RleStats, RunLengthCodec
from repro.hardware.sensor.sram_rng import (
    SramPowerUpRNG,
    ThresholdLUT,
    draw_ahead,
    settled,
    take_events,
)
from repro.sampling.eventification import DEFAULT_SIGMA
from repro.sampling.roi import box_to_pixels, boxes_mask, order_box

__all__ = ["BlissCamSensor", "SensorFrameOutput"]

#: A predictor maps (event_map, prev_segmentation | None) -> normalized box.
RoiPredictorFn = Callable[[np.ndarray, np.ndarray | None], np.ndarray]


def _normal_planes(generators, shape, out=None) -> np.ndarray:
    """Two standard-normal planes per generator, ``(B, 2, *shape)``: one
    draw call each, in order, into ``out`` when it has that shape (the
    helper's job, or the inline draw; see ``sram_rng``)."""
    shape = (len(generators), 2, *shape)
    z = out if out is not None and out.shape == shape else np.empty(shape)
    for planes, generator in zip(z, generators):
        generator.standard_normal(out=planes)
    return z


_noise_stream = attrgetter("_noise_rng")


@dataclass
class SensorFrameOutput:
    """Everything the sensor emits for one frame, plus accounting."""

    event_map: np.ndarray  # (H, W) bool
    roi_box_norm: np.ndarray  # (4,) normalized
    roi_box: tuple[int, int, int, int]  # pixel box
    sample_mask: np.ndarray  # (H, W) bool — RNG decisions inside the ROI
    readout: ReadoutResult
    rle_tokens: list[tuple[str, int]]
    rle_stats: RleStats

    @property
    def transmitted_bytes(self) -> int:
        return self.rle_stats.encoded_bytes

    @property
    def sampled_pixels(self) -> int:
        return self.readout.converted_pixels


class BlissCamSensor:
    """Stateful functional model of the augmented DPS."""

    def __init__(
        self,
        height: int,
        width: int,
        roi_predictor: RoiPredictorFn,
        sampling_rate: float = 0.2,
        sigma: float = DEFAULT_SIGMA,
        pixel: PixelCircuit = BLISSCAM_DPS,
        adc: SingleSlopeADC | None = None,
        comparator_noise: float = 1.0 / 1023,
        rng_variation: float = 0.25,
        seed: int = 0,
    ):
        if not 0 < sampling_rate <= 1:
            raise ValueError(f"sampling rate must be in (0, 1]: {sampling_rate}")
        self.height = height
        self.width = width
        self.sigma = sigma
        self.sampling_rate = sampling_rate
        self.pixel = pixel
        self.adc = adc or SingleSlopeADC()
        self.readout_unit = SparseReadout()
        self.codec = RunLengthCodec()
        self.roi_predictor = roi_predictor
        self.comparator_noise = comparator_noise
        self._noise_rng = np.random.default_rng(seed)
        self.sram_rng = SramPowerUpRNG(
            height * width, variation=rng_variation, seed=seed + 1
        )
        self.lut: ThresholdLUT = self.sram_rng.calibrate()
        self.theta = self.lut.theta_for_rate(sampling_rate)
        #: Analog memory: frame t-1 held on the AZ capacitors.
        self._held_frame: np.ndarray | None = None
        #: The next comparator-noise event when drawn ahead: ``(block, row)``.
        self._noise_ahead = None

    def __getstate__(self):
        # Copies and pickles carry the pending event, so they continue the
        # same stream.
        state = self.__dict__.copy()
        state["_noise_ahead"] = settled(self._noise_ahead)
        return state

    def spawn(self, seed_key) -> "BlissCamSensor":
        """A clone of the *same manufactured chip* with fresh runtime noise.

        The clone shares everything fixed at manufacture/calibration time
        (pixel circuit, ADC, SRAM power-up biases, threshold LUT, theta)
        but gets independent runtime noise streams seeded by ``seed_key``
        (an int or a sequence of ints).  The staged execution engine uses
        one spawn per evaluated sequence so that sequences draw from
        independent, order-insensitive noise streams — the property that
        makes every lockstep rank width bitwise-identical.
        """
        import copy

        key = list(seed_key) if np.iterable(seed_key) else [int(seed_key)]
        clone = copy.copy(self)
        clone._noise_rng = np.random.default_rng(key + [0])
        clone._noise_ahead = None
        clone.sram_rng = self.sram_rng.spawn(key + [1])
        clone._held_frame = None
        return clone

    # -- stage models: rank kernels, one lane per sensor -------------------------
    @staticmethod
    def draw_comparator_noise(
        sensors: list["BlissCamSensor"], shape: tuple[int, int]
    ) -> np.ndarray:
        """The two comparator offset-noise planes of each sensor of a rank,
        ``(B, 2, *shape)``, as ``σ·z + 0.0``: numpy's ``normal(0, σ)`` bit
        for bit (it forms ``0.0 + σ·z``, and ``+ 0.0`` turns a ``-0.0``
        into ``+0.0``).

        The one take of the noise streams: a lane's standard-normal planes
        ``z`` drawn ahead by :meth:`eventify_rank` are used as drawn (the
        block itself, written in place, when the rank is exactly its
        lanes), the rest are drawn now; ``σ`` is read at the take, so a
        changed ``comparator_noise`` applies from the next frame.
        """
        noise = take_events(
            sensors, "_noise_ahead", _noise_stream, _normal_planes, shape
        )
        noise *= np.array([s.comparator_noise for s in sensors])[:, None, None, None]
        noise += 0.0
        return noise

    @staticmethod
    def eventify_rank(
        sensors: list["BlissCamSensor"], frames: list[np.ndarray]
    ) -> list[np.ndarray | None]:
        """Eventify one new frame per sensor of a rank: its event maps.

        Each sensor latches its frame as the held AZ-capacitor frame (a view
        of one stacked copy, never written); a lane that held none yet gets
        None.  The rest compare frame difference plus comparator noise with
        +/- sigma: two decisions through Vth1/Vth2 (Fig. 9), rank-wide.
        Then every lane's next noise planes are drawn ahead, as one helper
        job into the spent noise buffer, while the host runs the frame.
        """
        for sensor, frame in zip(sensors, frames):
            if frame.shape != (sensor.height, sensor.width):
                raise ValueError(
                    f"frame shape {frame.shape} != sensor "
                    f"{sensor.height}x{sensor.width}"
                )
        frames = np.array(frames)
        live = [i for i, s in enumerate(sensors) if s._held_frame is not None]
        events: list[np.ndarray | None] = [None] * len(sensors)
        inputs = None
        if live:
            lanes = [sensors[i] for i in live]
            inputs = BlissCamSensor.draw_comparator_noise(lanes, frames.shape[1:])
            diff = frames if len(live) == len(sensors) else frames[live]
            inputs += (diff - np.array([s._held_frame for s in lanes]))[:, None]
            sigma = np.array([s.sigma for s in lanes])[:, None, None]
            decided = inputs[:, 0] > sigma
            decided |= inputs[:, 1] < -sigma
            for i, event_map in zip(live, decided):
                events[i] = event_map
        for sensor, frame in zip(sensors, frames):
            sensor._held_frame = frame
        draw_ahead(
            sensors, "_noise_ahead", _noise_stream, _normal_planes,
            frames.shape[1:], inputs,
        )
        return events

    @staticmethod
    def sample_rank(
        sensors: list["BlissCamSensor"], pixel_boxes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(B, H, W)`` sampling masks of a rank and its ``(B, H, W)``
        ROI masks (one broadcast compare, kept for :meth:`readout_rank`).

        Row ``i`` is ``sensors[i]``'s power-up popcounts at or above its
        theta, restricted to its ROI: one theta compare of the rank's
        popcounts (:meth:`SramPowerUpRNG.rank_popcounts`, the events drawn
        ahead at the previous frame where there are any).
        Then every lane's next power-up event is drawn ahead, as one
        helper job, while the host runs the frame; theta is read here,
        never by the helper.
        """
        shape = (sensors[0].height, sensors[0].width)
        in_roi = boxes_mask(pixel_boxes, *shape)
        rngs = [s.sram_rng for s in sensors]
        pops = SramPowerUpRNG.rank_popcounts(rngs).reshape(in_roi.shape)
        SramPowerUpRNG.draw_rank_ahead(rngs)
        masks = pops >= np.array([s.theta for s in sensors])[:, None, None]
        masks &= in_roi
        return masks, in_roi

    @staticmethod
    def readout_rank(
        sensors: list["BlissCamSensor"],
        frames: np.ndarray,
        sample_masks: np.ndarray,
        pixel_boxes: np.ndarray,
        roi_masks: np.ndarray,
    ) -> tuple[np.ndarray, list[ReadoutResult], list[RleStats]]:
        """ADC + sparse readout + RLE accounting of a rank, and the host's
        rebuild: ``(sparse_frames, readouts, rle_stats)``.

        One gather through the boxes' ``(B, H, W)`` ROI masks (as
        :meth:`sample_rank` returns them) takes every lane's column-major
        ROI pixels; the ADC quantizes them at once (lifted to >= 1 LSB so
        RLE zeros mean "skipped") and the skipped ones are zeroed.  RLE is lossless, so
        the host rebuilds each sparse frame from the stream, bitwise equal
        to :meth:`host_decode`, and the token counts need no tokens.
        """
        adc, unit = sensors[0].adc, sensors[0].readout_unit
        if any(s.adc != adc for s in sensors):
            raise ValueError("the sensors of a rank must share one ADC design")
        in_roi = roi_masks.transpose(0, 2, 1)
        values = frames.transpose(0, 2, 1)[in_roi]
        sampled = sample_masks.transpose(0, 2, 1)[in_roi]
        stream = adc.quantize(values, clamp_min_lsb=1) * sampled
        r0, c0, r1, c1 = np.asarray(pixel_boxes).T
        sizes = (r1 - r0) * (c1 - c0)
        readouts = unit.read_rank(stream, sampled, pixel_boxes)
        stats = sensors[0].codec.rank_stats(stream, sizes)
        sparse = np.zeros(frames.shape)
        sparse.transpose(0, 2, 1)[in_roi] = stream / float(adc.levels - 1)
        return sparse, readouts, stats

    def capture(
        self, frame: np.ndarray, prev_segmentation: np.ndarray | None
    ) -> SensorFrameOutput | None:
        """Process one exposure; returns None for the very first frame.

        The standalone chip model: one frame through the steps the
        engine's tracking stages run (eventify -> ROI predict -> sample ->
        readout, drawing comparator noise before the SRAM power-up bits;
        eventify, sample and readout are the rank kernels at width 1),
        plus the RLE token stream a real chip puts on the MIPI link.

        Parameters
        ----------
        frame:
            The new analog frame, normalized [0, 1] (noise already applied
            by the scene/optics simulation).
        prev_segmentation:
            The previous frame's segmentation map sent back from the host
            over MIPI (the Fig. 8 cross-frame dependency); None when not
            yet available.
        """
        (event_map,) = self.eventify_rank([self], [frame])
        if event_map is None:
            return None
        box_norm = order_box(
            np.asarray(self.roi_predictor(event_map, prev_segmentation))
        )
        pixel_box = box_to_pixels(box_norm, self.height, self.width)
        sample_masks, roi_masks = self.sample_rank([self], [pixel_box])
        _, (readout,), _ = self.readout_rank(
            [self], frame[None], sample_masks, [pixel_box], roi_masks
        )
        tokens, stats = self.codec.encode(readout.stream)
        return SensorFrameOutput(
            event_map=event_map,
            roi_box_norm=box_norm,
            roi_box=pixel_box,
            sample_mask=sample_masks[0],
            readout=readout,
            rle_tokens=tokens,
            rle_stats=stats,
        )

    # -- host side ---------------------------------------------------------------
    def host_decode(
        self, output: SensorFrameOutput
    ) -> tuple[np.ndarray, np.ndarray]:
        """RLE-decode and reconstruct ``(sparse_frame [0,1], mask)``."""
        stream = self.codec.decode(output.rle_tokens)
        codes, mask = SparseReadout.reconstruct(
            stream, output.roi_box, (self.height, self.width)
        )
        sparse = codes.astype(np.float64) / (self.adc.levels - 1)
        return sparse * mask, mask
