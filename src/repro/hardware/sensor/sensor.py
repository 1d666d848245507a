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
from typing import Callable

import numpy as np

from repro.hardware.sensor.adc import SingleSlopeADC
from repro.hardware.sensor.pixel import BLISSCAM_DPS, PixelCircuit
from repro.hardware.sensor.readout import ReadoutResult, SparseReadout
from repro.hardware.sensor.rle import RleStats, RunLengthCodec
from repro.hardware.sensor.sram_rng import SramPowerUpRNG, ThresholdLUT
from repro.sampling.eventification import DEFAULT_SIGMA
from repro.sampling.roi import box_to_pixels, order_box

__all__ = ["BlissCamSensor", "SensorFrameOutput"]

#: A predictor maps (event_map, prev_segmentation | None) -> normalized box.
RoiPredictorFn = Callable[[np.ndarray, np.ndarray | None], np.ndarray]


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

    def reset(self) -> None:
        """Drop the held frame (e.g. at sequence boundaries)."""
        self._held_frame = None

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
        clone.sram_rng = self.sram_rng.spawn(key + [1])
        clone._held_frame = None
        return clone

    # -- stage models ------------------------------------------------------------
    def draw_comparator_noise(self, shape: tuple[int, int]) -> np.ndarray:
        """The two comparator offset-noise planes for one eventification."""
        return self._noise_rng.normal(0.0, self.comparator_noise, size=(2, *shape))

    def eventify_inputs(
        self, frame: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The (diff, noise) operands of one comparator decision, or None.

        Returns None on the bootstrap frame.  Replaces the held
        AZ-capacitor frame with ``frame`` either way and draws this
        frame's comparator noise — i.e. it advances all per-frame sensor
        state, so callers (the engine's eventify stage) can vectorize the
        pure comparison ``|diff + noise| > sigma`` across sensors without
        touching sensor internals.
        """
        if frame.shape != (self.height, self.width):
            raise ValueError(
                f"frame shape {frame.shape} != sensor {self.height}x{self.width}"
            )
        if self._held_frame is None:
            self._held_frame = frame.copy()
            return None
        diff = frame - self._held_frame
        noise = self.draw_comparator_noise(frame.shape)
        self._held_frame = frame.copy()
        return diff, noise

    @staticmethod
    def comparator_decide(
        diff: np.ndarray, noise: np.ndarray, sigma
    ) -> np.ndarray:
        """Comparator-based |diff| > sigma with offset noise.

        Two sequential decisions through Vth1/Vth2 (Fig. 9).  Pure and
        elementwise, so the engine can apply it to stacked
        ``eventify_inputs`` of many sensors with bitwise-identical
        results.
        """
        above = diff + noise[..., 0, :, :] > sigma
        below = diff + noise[..., 1, :, :] < -sigma
        return above | below

    def mask_from_popcounts(
        self, popcounts: np.ndarray, pixel_box: tuple[int, int, int, int]
    ) -> np.ndarray:
        """Threshold per-pixel popcounts and restrict to the ROI.

        The deterministic half of the sampling decision: the engine's
        sample stage stacks the power-up draws of many sensors before
        thresholding each row here.
        """
        rng_mask = (popcounts >= self.theta).reshape((self.height, self.width))
        sample_mask = np.zeros_like(rng_mask)
        r0, c0, r1, c1 = pixel_box
        sample_mask[r0:r1, c0:c1] = rng_mask[r0:r1, c0:c1]
        return sample_mask

    def _convert_and_read(
        self,
        frame: np.ndarray,
        sample_mask: np.ndarray,
        pixel_box: tuple[int, int, int, int],
    ) -> tuple[np.ndarray, ReadoutResult]:
        # ADC only at sampled pixels; 1-LSB lift so RLE zeros mean "skipped".
        codes = np.zeros((self.height, self.width), dtype=np.int64)
        if sample_mask.any():
            codes[sample_mask] = self.adc.quantize(
                frame[sample_mask], clamp_min_lsb=1
            )
        return codes, self.readout_unit.read(codes, sample_mask, pixel_box)

    def readout_step(
        self,
        frame: np.ndarray,
        sample_mask: np.ndarray,
        pixel_box: tuple[int, int, int, int],
    ) -> tuple[np.ndarray, ReadoutResult, RleStats]:
        """ADC conversion + sparse readout + RLE accounting for one frame.

        Returns ``(codes, readout, rle_stats)``.  The RLE round-trip is
        lossless, so transmission-size accounting comes from the
        vectorized :meth:`RunLengthCodec.stream_stats` and the host can
        rebuild the sparse frame directly from ``codes`` — bitwise
        identical to decoding the token stream, without materializing it.
        """
        codes, readout = self._convert_and_read(frame, sample_mask, pixel_box)
        return codes, readout, self.codec.stream_stats(readout.stream)

    def capture(
        self, frame: np.ndarray, prev_segmentation: np.ndarray | None
    ) -> SensorFrameOutput | None:
        """Process one exposure; returns None for the very first frame.

        The standalone chip model: the same per-sensor steps the engine's
        tracking stages run (eventify -> ROI predict -> sample -> readout,
        drawing comparator noise before the SRAM power-up bits), plus the
        RLE token stream a real chip puts on the MIPI link.

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
        inputs = self.eventify_inputs(frame)
        if inputs is None:
            return None
        event_map = self.comparator_decide(*inputs, self.sigma)

        box_norm = order_box(
            np.asarray(self.roi_predictor(event_map, prev_segmentation))
        )
        pixel_box = box_to_pixels(box_norm, self.height, self.width)

        # SRAM power-up RNG decides sampling for every pixel; only those
        # inside the ROI are read out.
        sample_mask = self.mask_from_popcounts(
            self.sram_rng.power_up_popcounts(), pixel_box
        )
        _, readout = self._convert_and_read(frame, sample_mask, pixel_box)
        tokens, stats = self.codec.encode(readout.stream)
        return SensorFrameOutput(
            event_map=event_map,
            roi_box_norm=box_norm,
            roi_box=pixel_box,
            sample_mask=sample_mask,
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
