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

Drawing ahead.  A chip's random events (the comparator offset noise of
eventification and these power-up bits) happen inside the sensor, which
runs beside the host.  The model mirrors that: right after a rank takes
its events, the draw of those lanes' next events goes to one helper
thread per process, which makes it while the host runs the rest of the
frame.  No stream position moves: each generator's next event is either
its pending block row or drawn now, through one take
(:func:`take_events`), and the helper and the inline draw run the same
job.  A job touches only the generators and read-only cell biases it is
handed, never a module, a tracer, a held frame or a shared buffer.  A
forked child (a pool worker, whose pool already fills the cores) draws
everything inline.
"""

from __future__ import annotations

import os
import weakref
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

__all__ = [
    "SramPowerUpRNG",
    "ThresholdLUT",
    "BITS_PER_PIXEL",
    "popcount",
    "take_events",
    "draw_ahead",
    "settled",
]

#: The DPS stores 10-bit pixels, so 10 cells participate in the popcount.
BITS_PER_PIXEL = 10


def popcount(bits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-pixel popcount of boolean ``(..., 10)`` bits, as exact uint8:
    ten adds over a cell-major copy run ~4x faster than numpy's
    reduction along the short innermost axis."""
    cells = np.ascontiguousarray(np.moveaxis(bits.view(np.uint8), -1, 0))
    return np.add.reduce(cells, axis=0, dtype=np.uint8, out=out)


# -- drawing ahead -------------------------------------------------------------

_helper: ThreadPoolExecutor | None = None
#: The helper's newest job (weakly: its block is its owners' to keep).
_last_job = None
_forked = False


def _drain_before_fork() -> None:
    # A fork copies the generators, so none may be mid-draw; the helper
    # runs its jobs in order, so the newest one finishing means all have.
    job = _last_job() if _last_job is not None else None
    if job is not None:
        wait([job])


def _drop_helper_in_child() -> None:
    # The child inherits no helper thread; it draws inline from now on.
    global _helper, _last_job, _forked
    _helper, _last_job, _forked = None, None, True


os.register_at_fork(before=_drain_before_fork, after_in_child=_drop_helper_in_child)


def _settle(block) -> np.ndarray:
    return block.result() if isinstance(block, Future) else block


def settled(pending):
    """A pending ``(block, row)`` as a one-row array block of its own, or
    None: what a copy or a pickle of its owner carries along."""
    if pending is None:
        return None
    block, row = pending
    return _settle(block)[row : row + 1].copy(), 0


def take_events(owners, slot: str, stream, job, *args) -> np.ndarray:
    """The next event of each owner's stream, stacked in owner order.

    ``getattr(owner, slot)`` is ``(block, row)`` when the owner's next
    event was drawn ahead (``block`` a helper future or an array), else
    None; taking clears it.  The other owners draw now, by
    ``job([stream(o) for o in them], *args)``, the function the helper
    runs.  When the owners are exactly one block's lanes, in order, that
    block itself comes back, so the caller may write into it.
    """
    pending = []
    for owner in owners:
        pending.append(getattr(owner, slot))
        setattr(owner, slot, None)
    blocks = {id(p[0]): p[0] for p in pending if p is not None}
    if not blocks:
        return job([stream(owner) for owner in owners], *args)
    # Settle every block first: an owner listed twice draws its second
    # event inline, after its pending one.
    rows = {key: _settle(block) for key, block in blocks.items()}
    if len(rows) == 1 and None not in pending:
        (block,) = rows.values()
        if len(block) == len(owners) and all(
            row == i for i, (_, row) in enumerate(pending)
        ):
            return block
    fresh = [owner for owner, p in zip(owners, pending) if p is None]
    drawn = iter(job([stream(o) for o in fresh], *args) if fresh else ())
    return np.stack(
        [next(drawn) if p is None else rows[id(p[0])][p[1]] for p in pending]
    )


def draw_ahead(owners, slot: str, stream, job, *args) -> None:
    """Submit the draw of the next event of every owner with nothing
    pending to the helper thread, as one job ``job(streams, *args)``, and
    mark each such owner's ``slot`` with its row of the coming block.  A
    forked child draws nothing ahead."""
    global _helper, _last_job
    if _forked:
        return
    ahead = [o for o in dict.fromkeys(owners) if getattr(o, slot) is None]
    if not ahead:
        return
    if _helper is None:
        _helper = ThreadPoolExecutor(1, thread_name_prefix="sensor-draw-ahead")
    future = _helper.submit(job, [stream(o) for o in ahead], *args)
    _last_job = weakref.ref(future)
    for row, owner in enumerate(ahead):
        setattr(owner, slot, (future, row))


#: Bytes of float32 thermal noise drawn before one compare and popcount:
#: a few lanes at a time keeps the helper's GIL handoffs few and its
#: buffers small.
_DRAW_CHUNK_BYTES = 1 << 19


def _power_up_popcounts(lanes) -> np.ndarray:
    """One power-up event per ``(generator, cell biases)`` lane, as
    ``(B, num_pixels)`` uint8 popcounts (the helper's job, or the inline
    draw).

    Each lane draws its whole event in one float32 call (the per-cell bias
    only needs a Bernoulli compare, and the half-width draw roughly halves
    the cost of the hottest RNG).  About ``_DRAW_CHUNK_BYTES`` of draws at
    a time are compared with each lane's own chip biases into a cell-major
    bit array, which :func:`popcount` sums (without a copy but for a
    short last chunk).
    """
    generators, biases = zip(*lanes)
    step = max(1, _DRAW_CHUNK_BYTES // (4 * biases[0].size))
    draw = np.empty((min(step, len(lanes)), *biases[0].shape), dtype=np.float32)
    bits = np.moveaxis(np.empty((BITS_PER_PIXEL, *draw.shape[:-1]), dtype=bool), 0, -1)
    pops = np.empty((len(lanes), len(draw[0])), dtype=np.uint8)
    for head in range(0, len(lanes), step):
        n = min(step, len(lanes) - head)
        for out, generator in zip(draw[:n], generators[head:]):
            generator.random(out=out, dtype=np.float32)
        group = biases[head : head + n]
        bias = group[0] if all(b is group[0] for b in group) else np.array(group)
        np.less(draw[:n], bias, out=bits[:n])
        popcount(bits[:n], out=pops[head : head + n])
    return pops


_power_up_stream = attrgetter("rng", "_bias_f32")


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
        #: The next power-up event when drawn ahead: ``(block, row)``.
        self._ahead = None

    def __getstate__(self):
        # Copies and pickles carry the pending event, so they continue the
        # same stream.
        state = self.__dict__.copy()
        state["_ahead"] = settled(self._ahead)
        return state

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
        clone._ahead = None
        return clone

    def power_up_popcounts(self) -> np.ndarray:
        """One power-up event: the 10-bit popcount of every pixel."""
        return self.rank_popcounts([self])[0]

    @staticmethod
    def rank_popcounts(rngs: list["SramPowerUpRNG"]) -> np.ndarray:
        """One power-up event of every RNG of a rank, popcounted:
        ``(B, num_pixels)`` uint8, row ``i`` being ``rngs[i]``'s next
        :meth:`power_up_popcounts` (its in-ROI slice is what the sample
        stage thresholds).  The one take of the power-up streams: a lane's
        event drawn ahead (:meth:`draw_rank_ahead`) is used as drawn, the rest
        are drawn now, each from its own stream against its own chip's
        biases (lanes of different chips mix freely).
        """
        return take_events(rngs, "_ahead", _power_up_stream, _power_up_popcounts)

    @staticmethod
    def draw_rank_ahead(rngs: list["SramPowerUpRNG"]) -> None:
        """Start drawing the next power-up event of every RNG of a rank on
        the helper thread, as one job (see the module docstring)."""
        draw_ahead(rngs, "_ahead", _power_up_stream, _power_up_popcounts)

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
