"""Pins for the sensor half's rank kernels.

The tracking stages run eventify, sampling, readout and the ROI box
arithmetic as one stacked kernel over a lockstep rank, with only the
per-sequence keyed draws taken lane by lane.  Each kernel must stay
bitwise-equal, at every rank width, to the per-lane forms it replaced,
transcribed here as the references: ``normal(0, σ)`` noise and the
eventify/comparator pair, the per-lane ``mask_from_popcounts`` loop, the
sensor's ``readout_step`` with ``RunLengthCodec.stream_stats``, and the
per-box ``box_to_pixels`` and margin expansion.  The golden digests rest
on this width invariance.

The rank kernels draw each lane's next comparator-noise and power-up
events ahead on a helper thread; the retired inline draws are the
references that every order of ranks, copies and ``capture`` calls must
still equal, bit for bit.
"""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.api.tracker import MarginExpandedPredictor
from repro.engine.context import FrameContext, SequenceState
from repro.engine.stages import ROIPredictStage
from repro.hardware.sensor import BlissCamSensor, SingleSlopeADC, SramPowerUpRNG
from repro.hardware.sensor.rle import RleStats, RunLengthCodec
from repro.hardware.sensor.sram_rng import BITS_PER_PIXEL, popcount
from repro.sampling.roi import ROIPredictor, boxes_mask, boxes_to_pixels, order_box

WIDTHS = [1, 3, 24]
SIZE = 64
#: Full frame, one pixel, and boxes touching each frame edge.
PIXEL_BOXES = [
    (0, 0, SIZE, SIZE),
    (10, 20, 11, 21),
    (0, 50, 30, SIZE),
    (40, 0, SIZE, 10),
    (5, 7, 41, 39),
]
#: Normalized boxes: swapped corners, thin, outside the frame, exact edges,
#: a signed zero and a box that rounds onto the last row.
NORM_BOXES = [
    (0.8, 0.9, 0.2, 0.1),
    (0.5, 0.5, 0.5, 0.5),
    (-0.3, 1.2, 1.4, -0.1),
    (0.0, 0.0, 1.0, 1.0),
    (-0.0, 0.0, 0.0, -0.0),
    (0.999, 0.3, 1.0, 0.7),
    (0.25, 0.26, 0.75, 0.74),
]


def bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def predictor(event_map, prev_seg):
    return np.array([0.25, 0.25, 0.75, 0.75])


def rank_of(width):
    template = BlissCamSensor(
        SIZE, SIZE, roi_predictor=predictor, sampling_rate=0.3, seed=4
    )
    return [template.spawn([9, lane]) for lane in range(width)]


def cycle(items, width):
    return [items[lane % len(items)] for lane in range(width)]


# -- the retired per-lane forms ------------------------------------------------


def reference_noise(sensor, shape):
    """The retired ``draw_comparator_noise``."""
    return sensor._noise_rng.normal(0.0, sensor.comparator_noise, size=(2, *shape))


def reference_eventify(sensor, frame):
    """The retired ``eventify_inputs`` + ``comparator_decide`` of one lane."""
    if sensor._held_frame is None:
        sensor._held_frame = frame.copy()
        return None
    diff = frame - sensor._held_frame
    noise = reference_noise(sensor, frame.shape)
    sensor._held_frame = frame.copy()
    above = diff + noise[0] > sensor.sigma
    below = diff + noise[1] < -sensor.sigma
    return above | below


def power_up_bits(rng):
    """The retired ``SramPowerUpRNG.power_up_bits``: one float32 draw of
    the whole cell array, compared with the cell biases."""
    draw = rng.rng.random((rng.num_pixels, BITS_PER_PIXEL), dtype=np.float32)
    return draw < rng._bias_f32


def reference_rank_popcounts(rngs, boxes, shape):
    """The retired inline ``SramPowerUpRNG.rank_popcounts``: each lane draws
    its whole event into one cache-sized buffer and compares only its
    in-box cells; one popcount serves the rank, lanes end to end."""
    height, width = shape
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


def reference_masks(sensors, boxes):
    """The retired sample stage: stacked power-up bits, one popcount, then
    the per-lane ``mask_from_popcounts`` loop."""
    pops = popcount(np.array([power_up_bits(s.sram_rng) for s in sensors]))
    masks = []
    for sensor, pop, (r0, c0, r1, c1) in zip(sensors, pops, boxes):
        rng_mask = (pop >= sensor.theta).reshape((sensor.height, sensor.width))
        mask = np.zeros_like(rng_mask)
        mask[r0:r1, c0:c1] = rng_mask[r0:r1, c0:c1]
        masks.append(mask)
    return masks


def reference_stream_stats(values):
    """The retired ``RunLengthCodec.stream_stats``."""
    zero = values == 0
    literals = int(values.size - np.count_nonzero(zero))
    if not zero.any():
        return RleStats(int(values.size), literals, 0)
    edges = np.diff(np.concatenate(([False], zero, [False])).astype(np.int8))
    lengths = np.nonzero(edges == -1)[0] - np.nonzero(edges == 1)[0]
    return RleStats(int(values.size), literals, int(np.sum((lengths + 4094) // 4095)))


def reference_readout_step(sensor, frame, mask, box):
    """The retired ``readout_step`` and the stage's host rebuild of one lane:
    ``(sparse_frame, stream, converted, readout_time_s, rle_stats)``."""
    codes = np.zeros(frame.shape, dtype=np.int64)
    if mask.any():
        codes[mask] = sensor.adc.quantize(frame[mask], clamp_min_lsb=1)
    r0, c0, r1, c1 = box
    roi_mask = mask[r0:r1, c0:c1]
    stream = np.where(roi_mask, codes[r0:r1, c0:c1], 0).T.reshape(-1)
    unit = sensor.readout_unit
    time = unit.setup_time_s + (c1 - c0) * unit.column_time_s
    sparse = (codes.astype(np.float64) / float(sensor.adc.levels - 1)) * mask
    converted = int(np.count_nonzero(roi_mask))
    return sparse, stream, converted, time, reference_stream_stats(stream)


def reference_box_to_pixels(box, height, width):
    """The retired per-box ``box_to_pixels``."""
    r0, c0, r1, c1 = box
    r0, c0, r1, c1 = min(r0, r1), min(c0, c1), max(r0, r1), max(c0, c1)
    pr0 = int(np.clip(np.floor(np.float64(r0) * height), 0, height))
    pc0 = int(np.clip(np.floor(np.float64(c0) * width), 0, width))
    pr1 = int(np.clip(np.ceil(np.float64(r1) * height), 0, height))
    pc1 = int(np.clip(np.ceil(np.float64(c1) * width), 0, width))
    if pr1 <= pr0:
        pr1 = min(pr0 + 1, height)
        pr0 = pr1 - 1
    if pc1 <= pc0:
        pc1 = min(pc0 + 1, width)
        pc0 = pc1 - 1
    return pr0, pc0, pr1, pc1


def reference_expand(box, height, width, margin):
    """The retired ``MarginExpandedPredictor._expand`` of one box."""
    r0, c0, r1, c1 = reference_box_to_pixels(box, height, width)
    r0, c0 = max(0, r0 - margin), max(0, c0 - margin)
    r1, c1 = min(height, r1 + margin), min(width, c1 + margin)
    return np.array([r0 / height, c0 / width, r1 / height, c1 / width])


# -- eventify --------------------------------------------------------------------


@pytest.mark.parametrize("width", WIDTHS)
def test_noise_matches_normal(width):
    sensors = rank_of(width)
    for lane, sensor in enumerate(sensors):
        sensor.comparator_noise = (lane + 1) / 1023
    refs = rank_of(width)
    for lane, sensor in enumerate(refs):
        sensor.comparator_noise = (lane + 1) / 1023
    noise = BlissCamSensor.draw_comparator_noise(sensors, (SIZE, SIZE))
    assert bitwise(noise, np.array([reference_noise(s, (SIZE, SIZE)) for s in refs]))


@pytest.mark.parametrize("width", WIDTHS)
def test_forced_negative_zero_noise_is_positive_zero(width):
    """With σ = 0 every product σ·z of a negative draw is -0.0; numpy's
    ``normal(0, 0)`` returns +0.0 there, and so must the rank kernel."""
    sensors, refs = rank_of(width), rank_of(width)
    for sensor in sensors + refs:
        sensor.comparator_noise = 0.0
    probe = rank_of(width)[0]._noise_rng.standard_normal((2, SIZE, SIZE))
    assert (probe < 0).any() and np.signbit(probe * 0.0).any()
    noise = BlissCamSensor.draw_comparator_noise(sensors, (SIZE, SIZE))
    assert not np.signbit(noise).any()
    assert bitwise(noise, np.array([reference_noise(s, (SIZE, SIZE)) for s in refs]))


@pytest.mark.parametrize("width", WIDTHS)
def test_eventify_rank_matches_reference(width):
    sensors, refs = rank_of(width), rank_of(width)
    rng = np.random.default_rng(1)
    for step in range(3):
        frames = [rng.random((SIZE, SIZE)) for _ in range(width)]
        if step == 2:
            # A lane that joins late bootstraps while the others run.
            sensors[-1]._held_frame = None
            refs[-1]._held_frame = None
        events = BlissCamSensor.eventify_rank(sensors, frames)
        for event_map, sensor, frame in zip(events, refs, frames):
            expected = reference_eventify(sensor, frame)
            if expected is None:
                assert event_map is None
            else:
                assert bitwise(event_map, expected)


def test_eventify_rank_refuses_wrong_frame_shape():
    sensors = rank_of(3)
    frames = [np.zeros((SIZE, SIZE)), np.zeros((SIZE, 32)), np.zeros((SIZE, SIZE))]
    with pytest.raises(ValueError, match=r"frame shape \(64, 32\) != sensor 64x64"):
        BlissCamSensor.eventify_rank(sensors, frames)
    assert all(s._held_frame is None for s in sensors)


# -- sampling ----------------------------------------------------------------------


@pytest.mark.parametrize("width", WIDTHS)
def test_sample_rank_matches_mask_loop(width):
    sensors, refs = rank_of(width), rank_of(width)
    boxes = cycle(PIXEL_BOXES, width)
    for _ in range(2):
        masks, roi_masks = BlissCamSensor.sample_rank(sensors, np.array(boxes))
        expected = reference_masks(refs, boxes)
        assert masks.shape == (width, SIZE, SIZE)
        for mask, ref in zip(masks, expected):
            assert bitwise(mask, ref)
        assert bitwise(roi_masks, boxes_mask(np.array(boxes), SIZE, SIZE))


@pytest.mark.parametrize("width", WIDTHS)
def test_rank_popcounts_match_retired_inline_draw(width):
    """Drawn inline or ahead, a rank's popcounts sliced to its boxes equal
    the retired in-box draw; a lane listed twice draws two events."""
    boxes = cycle(PIXEL_BOXES, width)
    rngs = [s.sram_rng for s in rank_of(width)]
    refs = [s.sram_rng for s in rank_of(width)]
    in_roi = boxes_mask(np.array(boxes), SIZE, SIZE)
    for step in range(3):
        pops = SramPowerUpRNG.rank_popcounts(rngs)
        if step < 2:
            SramPowerUpRNG.draw_rank_ahead(rngs)
        expected = reference_rank_popcounts(refs, boxes, (SIZE, SIZE))
        assert bitwise(pops.reshape(in_roi.shape)[in_roi], expected)
    # The first lane's next event is pending: listed twice, it takes that
    # event, then draws its following one inline.
    SramPowerUpRNG.draw_rank_ahead(rngs)
    twice = SramPowerUpRNG.rank_popcounts([rngs[0], rngs[0]])
    full = [(0, 0, SIZE, SIZE)] * 2
    expected = reference_rank_popcounts([refs[0], refs[0]], full, (SIZE, SIZE))
    assert bitwise(twice.reshape(-1), expected)


def test_sample_rank_refuses_box_outside_frame():
    with pytest.raises(ValueError, match="outside frame"):
        BlissCamSensor.sample_rank(rank_of(2), np.array([(0, 0, 8, 8), (0, 0, 65, 8)]))


# -- readout ------------------------------------------------------------------------


def check_readout(sensors, frames, masks, boxes):
    sparse, readouts, stats = BlissCamSensor.readout_rank(
        sensors, np.array(frames), np.array(masks), np.array(boxes),
        boxes_mask(np.array(boxes), SIZE, SIZE),
    )
    for lane, (sensor, frame, mask, box) in enumerate(
        zip(sensors, frames, masks, boxes)
    ):
        ref_sparse, stream, converted, time, ref_stats = reference_readout_step(
            sensor, frame, mask, box
        )
        assert bitwise(sparse[lane], ref_sparse)
        assert bitwise(readouts[lane].stream, stream)
        assert readouts[lane].roi_box == tuple(box)
        assert readouts[lane].converted_pixels == converted
        assert readouts[lane].skipped_pixels == stream.size - converted
        assert readouts[lane].readout_time_s == time
        assert stats[lane] == ref_stats
        assert stats[lane] == RunLengthCodec().encode(stream)[1]
    return stats


@pytest.mark.parametrize("width", WIDTHS)
def test_readout_rank_matches_readout_step(width):
    sensors = rank_of(width)
    rng = np.random.default_rng(2)
    boxes = cycle(PIXEL_BOXES, width)
    # Values past both ends of [0, 1] exercise the ADC's clip and the
    # 1-LSB lift of sampled black pixels.
    frames = [rng.uniform(-0.1, 1.1, (SIZE, SIZE)) for _ in range(width)]
    masks, _ = BlissCamSensor.sample_rank(sensors, np.array(boxes))
    check_readout(sensors, frames, list(masks), boxes)


def test_fully_skipped_roi_splits_its_zero_run():
    """A 64x64 ROI with nothing sampled streams 4096 zeros: two run tokens."""
    sensors = rank_of(2)
    frames = [np.full((SIZE, SIZE), 0.5)] * 2
    masks = [np.zeros((SIZE, SIZE), dtype=bool), np.ones((SIZE, SIZE), dtype=bool)]
    boxes = [(0, 0, SIZE, SIZE)] * 2
    stats = check_readout(sensors, frames, masks, boxes)
    assert stats[0] == RleStats(4096, 0, 2)
    assert stats[1] == RleStats(4096, 4096, 0)


def test_readout_rank_refuses_codes_past_ten_bits():
    adc = SingleSlopeADC(bit_depth=12)
    sensor = BlissCamSensor(8, 8, roi_predictor=predictor, seed=0, adc=adc)
    frames, masks = np.ones((1, 8, 8)), np.ones((1, 8, 8), dtype=bool)
    with pytest.raises(ValueError, match="10 bits"):
        BlissCamSensor.readout_rank([sensor], frames, masks, [(0, 0, 8, 8)], masks)


def test_readout_rank_refuses_mixed_adc_designs():
    """One quantization serves the rank, so its chips share an ADC design."""
    lanes = [
        BlissCamSensor(8, 8, roi_predictor=predictor, seed=0),
        BlissCamSensor(8, 8, roi_predictor=predictor, seed=0, adc=SingleSlopeADC(8)),
    ]
    frames, masks = np.ones((2, 8, 8)), np.ones((2, 8, 8), dtype=bool)
    with pytest.raises(ValueError, match="share one ADC design"):
        BlissCamSensor.readout_rank(lanes, frames, masks, [(0, 0, 8, 8)] * 2, masks)


# -- a rank of two chips -----------------------------------------------------------


def test_mixed_chip_rank_equals_each_lane_alone():
    """Spawns of two differently seeded chips (different power-up biases
    and thetas) share one rank: the per-lane Bernoulli compare keeps each
    lane bitwise-equal to running it alone."""
    chips = [
        BlissCamSensor(SIZE, SIZE, roi_predictor=predictor, sampling_rate=0.2, seed=1),
        BlissCamSensor(SIZE, SIZE, roi_predictor=predictor, sampling_rate=0.45, seed=6),
    ]
    assert chips[0].theta != chips[1].theta
    assert not np.array_equal(chips[0].sram_rng._bias_f32, chips[1].sram_rng._bias_f32)
    width = 5
    rank = [chips[lane % 2].spawn([3, lane]) for lane in range(width)]
    alone = [chips[lane % 2].spawn([3, lane]) for lane in range(width)]
    boxes = cycle(PIXEL_BOXES, width)
    rng = np.random.default_rng(3)
    for _ in range(3):
        frames = [rng.random((SIZE, SIZE)) for _ in range(width)]
        events = BlissCamSensor.eventify_rank(rank, frames)
        masks, roi_masks = BlissCamSensor.sample_rank(rank, np.array(boxes))
        sparse, readouts, stats = BlissCamSensor.readout_rank(
            rank, np.array(frames), masks, np.array(boxes), roi_masks
        )
        for lane, sensor in enumerate(alone):
            (event_map,) = BlissCamSensor.eventify_rank([sensor], [frames[lane]])
            assert (event_map is None) == (events[lane] is None)
            if event_map is not None:
                assert bitwise(events[lane], event_map)
            (mask,), roi_mask = BlissCamSensor.sample_rank(
                [sensor], np.array([boxes[lane]])
            )
            assert bitwise(masks[lane], mask)
            solo = BlissCamSensor.readout_rank(
                [sensor], np.array([frames[lane]]), mask[None],
                np.array([boxes[lane]]), roi_mask,
            )
            assert bitwise(sparse[lane], solo[0][0])
            assert bitwise(readouts[lane].stream, solo[1][0].stream)
            assert stats[lane] == solo[2][0]


# -- ROI boxes ----------------------------------------------------------------------


@pytest.mark.parametrize("width", WIDTHS)
def test_box_ordering_and_pixels_match_per_box(width):
    boxes = np.array(cycle(NORM_BOXES, width))
    ordered = order_box(boxes)
    pixels = boxes_to_pixels(boxes, 40, SIZE)
    for row, box in enumerate(boxes):
        r0, c0, r1, c1 = box
        expected = np.array(
            [min(r0, r1), min(c0, c1), max(r0, r1), max(c0, c1)], dtype=np.float64
        )
        assert bitwise(ordered[row], expected)
        assert tuple(pixels[row].astype(int)) == reference_box_to_pixels(box, 40, SIZE)


@pytest.mark.parametrize("width", WIDTHS)
def test_margin_expansion_matches_per_box(width):
    expander = MarginExpandedPredictor(None, 40, SIZE, margin=3)
    boxes = np.array(cycle(NORM_BOXES, width))
    expected = np.array([reference_expand(box, 40, SIZE, 3) for box in boxes])
    assert bitwise(expander._expand(boxes), expected)


def roi_contexts(width):
    ctxs = [
        FrameContext(seq_index=7 + lane, t=3, frame=np.zeros((SIZE, SIZE)))
        for lane in range(width)
    ]
    for ctx in ctxs:
        ctx.event_map = np.zeros((SIZE, SIZE), dtype=bool)
    return ctxs, [SequenceState(seq_index=ctx.seq_index) for ctx in ctxs]


def test_roi_stage_refuses_nan_box_by_name():
    def nan_in_lane_one(event_map, prev_seg):
        nan_in_lane_one.calls += 1
        box = np.array([0.1, 0.2, 0.6, 0.7])
        return box * np.nan if nan_in_lane_one.calls == 2 else box

    nan_in_lane_one.calls = 0
    stage = ROIPredictStage(nan_in_lane_one, SIZE, SIZE)
    ctxs, seqs = roi_contexts(3)
    named = r"ROI box \[nan, nan, nan, nan\] for sequence 8 at frame t=3"
    with pytest.raises(ValueError, match=named):
        stage.process_batch(ctxs, seqs)


def test_roi_stage_refuses_nan_from_the_roi_network_by_name():
    """A NaN out of the trained ROI network passes the margin expansion as
    NaN (an integer cast would make it a wrong box) and is refused."""
    net = ROIPredictor(SIZE, SIZE, np.random.default_rng(0), base_channels=2)
    net.fc2.bias.data[...] = np.nan
    stage = ROIPredictStage(MarginExpandedPredictor(net, SIZE, SIZE, 2), SIZE, SIZE)
    ctxs, seqs = roi_contexts(2)
    named = "non-finite ROI box .* for sequence 7 at frame t=3"
    with pytest.raises(ValueError, match=named):
        stage.process_batch(ctxs, seqs)


# -- drawing ahead --------------------------------------------------------------


def reference_step(refs, frames, boxes):
    """One frame of lanes through the retired inline draws: the event maps,
    and the sampling masks of the lanes that had a held frame."""
    events = [reference_eventify(ref, frame) for ref, frame in zip(refs, frames)]
    live = [i for i, e in enumerate(events) if e is not None]
    if not live:
        return events, live, []
    masks = reference_masks([refs[i] for i in live], [boxes[i] for i in live])
    return events, live, masks


def check_step(sensors, refs, frames, boxes):
    """Eventify and sample one frame of ``sensors`` as the engine does
    (bootstrapping lanes skip sampling) against ``refs``."""
    events = BlissCamSensor.eventify_rank(sensors, frames)
    ref_events, live, ref_masks = reference_step(refs, frames, boxes)
    for event_map, expected in zip(events, ref_events):
        assert (event_map is None) == (expected is None)
        if expected is not None:
            assert bitwise(event_map, expected)
    if live:
        masks, _ = BlissCamSensor.sample_rank(
            [sensors[i] for i in live], np.array([boxes[i] for i in live])
        )
        for mask, expected in zip(masks, ref_masks):
            assert bitwise(mask, expected)


@pytest.mark.parametrize("width", WIDTHS)
def test_changing_ranks_match_inline_draws(width):
    """Serve-like ticks: each rank is a shuffled subset of the lanes, so
    ranks shrink, reorder and skip lanes that hold a pending block; a lane
    restarts, and one lane's sigma and theta change between frames."""
    run_changing_ranks(width)


def test_draw_ahead_under_fast_thread_switching():
    """With the interpreter switching threads about every microsecond the
    helper's jobs interleave with the host at nearly every bytecode; the
    streams stay those of the inline draws."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            run_changing_ranks(24)
    finally:
        sys.setswitchinterval(interval)


def run_changing_ranks(width):
    sensors, refs = rank_of(width), rank_of(width)
    rng = np.random.default_rng(5)
    # Whole ranks, in order and then reversed (a pending block's lanes in
    # another order), before random subsets.
    whole = [list(range(width)), list(range(width)), list(range(width))[::-1]]
    for step in range(10):
        if step < len(whole):
            lanes = whole[step]
        else:
            size = int(rng.integers(1, width + 1))
            lanes = [int(i) for i in rng.permutation(width)[:size]]
        if step == 6:
            sensors[lanes[0]]._held_frame = None
            refs[lanes[0]]._held_frame = None
        if step == 7:
            for sensor in (sensors[lanes[-1]], refs[lanes[-1]]):
                sensor.comparator_noise = 3 / 1023
                sensor.theta = 7
        frames = [rng.random((SIZE, SIZE)) for _ in lanes]
        boxes = [PIXEL_BOXES[i % len(PIXEL_BOXES)] for i in lanes]
        check_step(
            [sensors[i] for i in lanes], [refs[i] for i in lanes], frames, boxes
        )


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda sensor: pickle.loads(pickle.dumps(sensor)),
}


@pytest.mark.parametrize("how", sorted(COPIES))
def test_copies_continue_the_pending_stream(how):
    """A copy taken while both of a lane's next events are pending carries
    them along and continues the lane's stream uninterrupted."""
    sensors, refs = rank_of(3), rank_of(3)
    rng = np.random.default_rng(6)
    boxes = PIXEL_BOXES[:3]
    for _ in range(3):
        check_step(sensors, refs, [rng.random((SIZE, SIZE)) for _ in range(3)], boxes)
    assert sensors[1]._noise_ahead is not None
    assert sensors[1].sram_rng._ahead is not None
    twin = COPIES[how](sensors[1])
    for _ in range(3):
        check_step([twin], [refs[1]], [rng.random((SIZE, SIZE))], boxes[1:2])


def test_spawn_of_a_sensor_with_pending_blocks_starts_fresh():
    """A spawn keys fresh streams and starts with nothing pending; the
    parent's own streams go on uninterrupted."""
    template = rank_of(1)[0]
    ref = rank_of(1)[0]
    rng = np.random.default_rng(7)
    box = PIXEL_BOXES[4:5]
    for _ in range(2):
        check_step([template], [ref], [rng.random((SIZE, SIZE))], box)
    clone = template.spawn([9, 1])
    assert clone._noise_ahead is None and clone.sram_rng._ahead is None
    fresh = rank_of(2)[1]
    for _ in range(3):
        frame = rng.random((SIZE, SIZE))
        check_step([clone], [fresh], [frame], box)
        check_step([template], [ref], [frame], box)


def test_capture_interleaved_with_rank_kernels():
    """``capture`` takes the same events the rank kernels drew ahead."""
    sensor, ref = rank_of(1)[0], rank_of(1)[0]
    rng = np.random.default_rng(8)
    box = (16, 16, 48, 48)  # the predictor's box
    for step in range(6):
        frame = rng.random((SIZE, SIZE))
        if step % 2:
            check_step([sensor], [ref], [frame], [box])
            continue
        out = sensor.capture(frame, None)
        expected = reference_eventify(ref, frame)
        assert (out is None) == (expected is None)
        if out is not None:
            assert out.roi_box == box
            assert bitwise(out.event_map, expected)
            assert bitwise(out.sample_mask, reference_masks([ref], [box])[0])


def run_rank_in_worker(shared, part):
    """Pool job: run a few frames of a rank; report the process's threads
    and whether anything was left drawn ahead."""
    sensors = rank_of(3)
    rng = np.random.default_rng(part)
    for _ in range(3):
        frames = [rng.random((SIZE, SIZE)) for _ in sensors]
        BlissCamSensor.eventify_rank(sensors, frames)
        BlissCamSensor.sample_rank(sensors, np.array(PIXEL_BOXES[:3]))
    pending = [s._noise_ahead or s.sram_rng._ahead for s in sensors]
    return [t.name for t in threading.enumerate()], any(pending)


def test_pool_workers_draw_inline(sharding):
    """Forked pool workers (whose pool already fills the cores) start no
    helper thread and leave nothing pending, even when the parent had a
    helper running when they were forked."""
    sensors = rank_of(2)
    for _ in range(2):
        BlissCamSensor.eventify_rank(sensors, [np.zeros((SIZE, SIZE))] * 2)
    assert sensors[0]._noise_ahead is not None
    assert any(t.name.startswith("sensor-draw-ahead") for t in threading.enumerate())
    for threads, pending in sharding.map(run_rank_in_worker, None, [0, 1]):
        assert not any(name.startswith("sensor-draw-ahead") for name in threads)
        assert not pending
