"""SRAM power-up metastability random number generator (paper Sec. IV-C).

BlissCam generates the per-pixel random sampling bit by reusing the 10-bit
per-pixel SRAM: on power-up each 6T cell latches to 0/1 essentially at
random (metastability resolved by thermal noise), but *biased* per cell by
process variation.  Summing the 10 power-up bits of a pixel (a popcount)
and comparing against a 4-bit threshold ``theta`` mitigates the per-cell
bias; a one-time offline calibration profiles the popcount distribution
and builds a 16-entry look-up table from target sampling rate to theta.

The model: cell ``i`` of pixel ``p`` latches to 1 with probability
``p_{pi}`` drawn once (at "manufacture") from a Beta distribution centred
at 0.5 whose concentration reflects process variation — matching the
measurement-based statistics the paper borrows from Holcomb et al. and
Wieckowski et al.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SramPowerUpRNG", "ThresholdLUT", "BITS_PER_PIXEL", "popcount"]

#: The DPS stores 10-bit pixels, so 10 cells participate in the popcount.
BITS_PER_PIXEL = 10


def popcount(bits: np.ndarray) -> np.ndarray:
    """Per-pixel popcount of boolean ``(..., 10)`` bits, as exact uint8:
    ten adds over a cell-major copy run ~4x faster than numpy's
    reduction along the short innermost axis."""
    cells = np.ascontiguousarray(np.moveaxis(bits.view(np.uint8), -1, 0))
    return np.add.reduce(cells, axis=0, dtype=np.uint8)


@dataclass(frozen=True)
class ThresholdLUT:
    """The 16-entry sampling-rate -> theta table built by calibration.

    ``rate_for_theta[t]`` is the measured probability that a pixel's
    popcount is **>= t** (the pixel is sampled), for ``t`` in 0..15 (4-bit
    theta; popcounts only reach 10, so entries 11..15 give rate 0).
    """

    rate_for_theta: tuple[float, ...]

    def __post_init__(self):
        if len(self.rate_for_theta) != 16:
            raise ValueError("LUT must have exactly 16 entries (4-bit theta)")

    def theta_for_rate(self, target_rate: float) -> int:
        """Smallest theta whose achieved rate does not exceed the target.

        Rates are monotonically non-increasing in theta; theta=0 samples
        everything.
        """
        if not 0.0 <= target_rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1]: {target_rate}")
        for theta in range(16):
            if self.rate_for_theta[theta] <= target_rate:
                return theta
        return 15


class SramPowerUpRNG:
    """Per-pixel popcount-of-power-up-bits random source.

    Parameters
    ----------
    num_pixels:
        Size of the pixel array (cells are ``num_pixels x 10``).
    variation:
        Process-variation strength: standard deviation of the per-cell
        power-up bias around 0.5.  Holcomb et al. report strongly biased
        cells are common; 0.25 puts many cells near deterministic while
        the popcount stays usable — which is exactly why the paper sums
        10 bits instead of using a single cell.
    seed:
        Seeds both the manufacture-time biases and runtime noise.
    """

    def __init__(self, num_pixels: int, variation: float = 0.25, seed: int = 0):
        if num_pixels < 1:
            raise ValueError(f"need at least one pixel: {num_pixels}")
        if not 0.0 <= variation < 0.5:
            raise ValueError(f"variation must be in [0, 0.5): {variation}")
        self.num_pixels = num_pixels
        self.rng = np.random.default_rng(seed)
        if variation == 0.0:
            self._bias = np.full((num_pixels, BITS_PER_PIXEL), 0.5)
        else:
            # Beta with matching std, symmetric around 0.5.
            conc = (0.25 - variation**2) / (variation**2) / 2.0
            conc = max(conc, 0.05)
            self._bias = self.rng.beta(conc, conc, size=(num_pixels, BITS_PER_PIXEL))
        # Cached half-width biases so the per-frame Bernoulli comparison
        # stays in float32 (no silent upcast of the draw).
        self._bias_f32 = self._bias.astype(np.float32)

    def spawn(self, seed_key) -> "SramPowerUpRNG":
        """Same manufactured cell biases, fresh runtime randomness.

        Power-up biases are fixed at manufacture; only the thermal noise
        that resolves metastability differs between power cycles.  The
        clone therefore keeps ``_bias`` (and hence any calibrated LUT stays
        valid) while drawing power-up bits from a new stream seeded by
        ``seed_key`` (an int or a sequence of ints).
        """
        import copy

        clone = copy.copy(self)
        clone.rng = np.random.default_rng(seed_key)
        return clone

    def power_up_bits(self) -> np.ndarray:
        """One power-up event: the (num_pixels, 10) latched cell values.

        Thermal noise is drawn in float32 — the per-cell bias only needs a
        Bernoulli comparison, and the half-width draw roughly halves the
        cost of the hottest RNG in the frame loop.
        """
        draw = self.rng.random(
            (self.num_pixels, BITS_PER_PIXEL), dtype=np.float32
        )
        return draw < self._bias_f32

    def power_up_popcounts(self) -> np.ndarray:
        """One power-up event: the 10-bit popcount of every pixel."""
        return popcount(self.power_up_bits())

    @staticmethod
    def rank_popcounts(
        rngs: list["SramPowerUpRNG"], pixel_boxes: np.ndarray, shape: tuple[int, int]
    ) -> np.ndarray:
        """One power-up event of every RNG of a rank, popcounted in boxes.

        Lane ``i`` contributes ``rngs[i].power_up_popcounts().reshape(shape)
        [r0:r1, c0:c1]`` (bitwise, row-major), lanes end to end.  Each lane
        draws its whole event from its own stream, in rank order, into one
        cache-sized buffer and compares only its in-box cells against its
        own biases (lanes of different chips mix freely); one popcount
        serves the rank.
        """
        height, width = shape
        boxes = np.asarray(pixel_boxes).tolist()
        sizes = [(r1 - r0) * (c1 - c0) for r0, c0, r1, c1 in boxes]
        draw = np.empty((height, width, BITS_PER_PIXEL), dtype=np.float32)
        bits = np.empty((sum(sizes), BITS_PER_PIXEL), dtype=bool)
        head = 0
        for rng, (r0, c0, r1, c1), size in zip(rngs, boxes, sizes):
            rng.rng.random(out=draw, dtype=np.float32)
            bias = rng._bias_f32.reshape(draw.shape)
            out = bits[head : head + size].reshape(r1 - r0, c1 - c0, -1)
            np.less(draw[r0:r1, c0:c1], bias[r0:r1, c0:c1], out=out)
            head += size
        return popcount(bits)

    def calibrate(self, cycles: int = 64) -> ThresholdLUT:
        """Offline profiling: power up/down ``cycles`` times, build the LUT."""
        if cycles < 1:
            raise ValueError(f"cycles must be >= 1: {cycles}")
        counts = np.zeros(16, dtype=np.float64)
        total = 0
        for _ in range(cycles):
            pop = self.power_up_popcounts()
            for theta in range(16):
                counts[theta] += np.count_nonzero(pop >= theta)
            total += self.num_pixels
        return ThresholdLUT(tuple(float(c / total) for c in counts))

    def sample_mask(self, shape: tuple[int, int], theta: int) -> np.ndarray:
        """Runtime sampling decision for every pixel, as a (H, W) mask."""
        if shape[0] * shape[1] != self.num_pixels:
            raise ValueError(
                f"shape {shape} does not match {self.num_pixels} pixels"
            )
        if not 0 <= theta <= 15:
            raise ValueError(f"theta must be a 4-bit value: {theta}")
        pop = self.power_up_popcounts()
        return (pop >= theta).reshape(shape)
