"""Tests for sampling masks and the Fig. 15 strategy zoo."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling import (
    FullDownsample,
    FullRandom,
    ROIDownsample,
    ROIFixed,
    ROILearned,
    ROIRandom,
    SamplingDecision,
    SamplingStrategy,
    SkipStrategy,
    apply_mask,
    effective_compression,
    random_mask,
    random_mask_in_box,
    uniform_grid_mask,
    uniform_mask_in_box,
)

RNG = np.random.default_rng(0)
SHAPE = (48, 48)


class TestMasks:
    def test_random_mask_rate(self):
        mask = random_mask((200, 200), 0.2, np.random.default_rng(1))
        assert abs(mask.mean() - 0.2) < 0.02

    def test_uniform_grid_rate(self):
        mask = uniform_grid_mask((100, 100), 0.25)
        assert abs(mask.mean() - 0.25) < 0.05

    def test_random_in_box_stays_in_box(self):
        box = (10, 10, 30, 30)
        mask = random_mask_in_box(SHAPE, box, 0.5, RNG)
        outside = mask.copy()
        outside[10:30, 10:30] = False
        assert not outside.any()
        assert mask[10:30, 10:30].mean() > 0.3

    def test_uniform_in_box_stays_in_box(self):
        box = (4, 8, 20, 40)
        mask = uniform_mask_in_box(SHAPE, box, 0.25)
        outside = mask.copy()
        outside[4:20, 8:40] = False
        assert not outside.any()
        assert mask.any()

    def test_apply_mask_zeroes(self):
        frame = np.ones(SHAPE)
        mask = np.zeros(SHAPE, dtype=bool)
        mask[0, 0] = True
        sparse = apply_mask(frame, mask)
        assert sparse.sum() == 1.0

    def test_effective_compression(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[:5, :2] = True  # 10 of 100
        assert effective_compression(mask) == pytest.approx(10.0)

    def test_empty_mask_infinite_compression(self):
        assert effective_compression(np.zeros((4, 4), dtype=bool)) == float("inf")

    @pytest.mark.parametrize("rate", [0.0, -0.1, 1.5])
    def test_invalid_rates_raise(self, rate):
        with pytest.raises(ValueError):
            random_mask(SHAPE, rate, RNG)


def _fixture_frame():
    rng = np.random.default_rng(3)
    frame = rng.random(SHAPE)
    event = rng.random(SHAPE) < 0.1
    box = (12, 12, 36, 36)
    return frame, event, box


class TestStrategies:
    @pytest.mark.parametrize(
        "cls", [FullRandom, FullDownsample, ROIDownsample, ROIRandom, ROILearned]
    )
    def test_compression_near_target(self, cls):
        frame, event, box = _fixture_frame()
        strategy = cls(compression=8.0)
        decision = strategy.sample(frame, event, box, np.random.default_rng(5))
        assert decision.transmitted_pixels > 0
        assert 4.0 < decision.compression < 20.0

    def test_roi_random_respects_roi(self):
        frame, event, box = _fixture_frame()
        decision = ROIRandom(8.0).sample(frame, event, box, RNG)
        outside = decision.mask.copy()
        outside[box[0] : box[2], box[1] : box[3]] = False
        assert not outside.any()

    def test_roi_strategies_fall_back_to_full_frame(self):
        frame, event, _ = _fixture_frame()
        decision = ROIRandom(8.0).sample(frame, event, None, RNG)
        assert decision.roi_box == (0, 0, *SHAPE)

    def test_full_random_ignores_roi(self):
        frame, event, box = _fixture_frame()
        decision = FullRandom(4.0).sample(frame, event, box, np.random.default_rng(7))
        outside = decision.mask.copy()
        outside[box[0] : box[2], box[1] : box[3]] = False
        assert outside.any()  # samples exist outside the ROI

    def test_skip_reuses_on_quiet_frames(self):
        frame, _, box = _fixture_frame()
        quiet = np.zeros(SHAPE, dtype=bool)
        strategy = SkipStrategy(compression=4.0)
        decision = strategy.sample(frame, quiet, box, RNG)
        assert decision.reuse_previous
        assert decision.transmitted_pixels == 0

    def test_skip_sends_on_active_frames(self):
        frame, _, box = _fixture_frame()
        busy = np.ones(SHAPE, dtype=bool)
        strategy = SkipStrategy(compression=4.0)
        decision = strategy.sample(frame, busy, box, RNG)
        assert not decision.reuse_previous
        assert decision.transmitted_pixels == frame.size

    def test_roi_fixed_requires_fit(self):
        frame, event, box = _fixture_frame()
        with pytest.raises(RuntimeError):
            ROIFixed(8.0).sample(frame, event, box, RNG)

    def test_roi_fixed_uses_statistics(self):
        frame, event, box = _fixture_frame()
        # Budget (2304/36 = 64) exactly matches the 8x8 always-foreground
        # region, so every selected pixel must lie inside it.
        strategy = ROIFixed(compression=36.0)
        fg = np.zeros((5, *SHAPE), dtype=bool)
        fg[:, 20:28, 20:28] = True  # foreground always in the center
        strategy.fit(fg)
        decision = strategy.sample(frame, event, box, RNG)
        rows, cols = np.nonzero(decision.mask)
        assert rows.min() >= 20 and rows.max() < 28
        assert cols.min() >= 20 and cols.max() < 28
        assert decision.transmitted_pixels == 64

    def test_roi_learned_budget_exact(self):
        frame, event, box = _fixture_frame()
        decision = ROILearned(compression=16.0).sample(frame, event, box, RNG)
        assert decision.transmitted_pixels <= round(frame.size / 16.0)

    def test_roi_learned_custom_scorer(self):
        frame, event, box = _fixture_frame()
        scores = np.zeros(SHAPE)
        scores[15, 15] = 10.0
        decision = ROILearned(
            compression=frame.size, scorer=lambda f, e: scores
        ).sample(frame, event, box, RNG)
        assert decision.mask[15, 15]

    def test_rejects_compression_below_one(self):
        with pytest.raises(ValueError):
            FullRandom(0.5)

    @given(compression=st.floats(2.0, 50.0))
    @settings(max_examples=20, deadline=None)
    def test_sparse_frame_zero_outside_mask(self, compression):
        frame, event, box = _fixture_frame()
        decision = ROIRandom(compression).sample(
            frame, event, box, np.random.default_rng(11)
        )
        assert np.all(decision.sparse_frame[~decision.mask] == 0)
        np.testing.assert_array_equal(
            decision.sparse_frame[decision.mask], frame[decision.mask]
        )


class TestSpawn:
    """Per-sequence strategy spawns (mirrors the sensor's spawn design)."""

    def test_stochastic_flags(self):
        assert FullRandom.stochastic
        assert ROIRandom.stochastic
        assert ROILearned.stochastic
        assert not FullDownsample.stochastic
        assert not ROIDownsample.stochastic
        assert not ROIFixed.stochastic
        assert not SkipStrategy.stochastic

    def test_spawn_keyed_streams_are_reproducible(self):
        frame, event, box = _fixture_frame()
        template = ROIRandom(8.0)
        a = template.spawn([42, 3])
        b = template.spawn([42, 3])
        other = template.spawn([42, 4])
        da = a.sample(frame, event, box, a.rng)
        db = b.sample(frame, event, box, b.rng)
        dc = other.sample(frame, event, box, other.rng)
        assert np.array_equal(da.mask, db.mask)  # same key, same stream
        assert not np.array_equal(da.mask, dc.mask)  # different sequence

    def test_spawn_does_not_touch_the_template(self):
        template = ROIRandom(8.0)
        assert template.rng is None
        clone = template.spawn(7)
        assert clone is not template
        assert clone.rng is not None
        assert template.rng is None

    def test_skip_spawn_resets_adaptive_state(self):
        frame, _, box = _fixture_frame()
        template = SkipStrategy(compression=4.0)
        # Drive the template's adaptive gate away from its initial state.
        busy = np.ones(SHAPE, dtype=bool)
        for _ in range(5):
            template.sample(frame, busy, box, RNG)
        clone = template.spawn([1, 0])
        assert clone._frames_seen == 0
        assert clone._frames_sent == 0
        assert template._frames_seen == 5  # template untouched

    def test_skip_spawned_clones_are_independent(self):
        frame, _, box = _fixture_frame()
        template = SkipStrategy(compression=4.0)
        a = template.spawn([1, 0])
        b = template.spawn([1, 1])
        busy = np.ones(SHAPE, dtype=bool)
        a.sample(frame, busy, box, a.rng)
        assert a._frames_sent == 1
        assert b._frames_sent == 0

    def test_roi_fixed_spawn_shares_fitted_map(self):
        template = ROIFixed(compression=36.0)
        fg = np.zeros((5, *SHAPE), dtype=bool)
        fg[:, 20:28, 20:28] = True
        template.fit(fg)
        clone = template.spawn([0, 0])
        assert clone._prob_map is template._prob_map  # fit-time state shared
        frame, event, box = _fixture_frame()
        decision = clone.sample(frame, event, box, clone.rng)
        assert decision.transmitted_pixels == 64


def _make_template(cls):
    if cls is ROIFixed:
        template = ROIFixed(compression=4.0)
        template.fit(np.random.default_rng(9).random((6, *SHAPE)) > 0.5)
        return template
    return cls(compression=4.0)


_ALL_STRATEGY_CLASSES = [
    FullRandom,
    FullDownsample,
    SkipStrategy,
    ROIDownsample,
    ROIFixed,
    ROILearned,
    ROIRandom,
]


class TestSampleBatch:
    """``sample_batch`` over a rank == a loop of width-1 ``sample`` calls,
    bitwise, per strategy — the kernel's width invariance.

    Two independent spawn sets with identical keys play the roles of the
    sequential (width-1) and the lockstep run; several steps per rank
    verify that both RNG stream positions and adaptive state (SKIP's
    gate) advance identically.
    """

    B = 5
    STEPS = 3

    def _rank(self):
        rng = np.random.default_rng(17)
        frames = [rng.random(SHAPE) for _ in range(self.B)]
        events = [rng.random(SHAPE) > 0.9 for _ in range(self.B)]
        boxes = [
            (12, 12, 36, 36),
            None,
            (0, 0, *SHAPE),
            (5, 20, 30, 44),
            (8, 8, 40, 40),
        ]
        return frames, events, boxes

    @pytest.mark.parametrize("cls", _ALL_STRATEGY_CLASSES)
    def test_batch_matches_per_row_loop(self, cls):
        template = _make_template(cls)
        frames, events, boxes = self._rank()
        scalar = [template.spawn([7, i]) for i in range(self.B)]
        batched = [template.spawn([7, i]) for i in range(self.B)]
        for _ in range(self.STEPS):
            ref = [
                s.sample(f, e, b, s.rng)
                for s, f, e, b in zip(scalar, frames, events, boxes)
            ]
            got = template.sample_batch(
                batched, frames, events, boxes, [s.rng for s in batched]
            )
            for r, g in zip(ref, got):
                assert np.array_equal(r.mask, g.mask)
                assert np.array_equal(r.sparse_frame, g.sparse_frame)
                assert r.roi_box == g.roi_box
                assert r.reuse_previous == g.reuse_previous
                assert r.compression == g.compression

    def test_skip_batch_threads_adaptive_state(self):
        """A mixed quiet/busy rank must advance every spawn's gate the
        way width-1 calls would."""
        frames, _, boxes = self._rank()
        quiet = np.zeros(SHAPE, dtype=bool)
        busy = np.ones(SHAPE, dtype=bool)
        events = [quiet, busy, quiet, busy, busy]
        template = SkipStrategy(compression=4.0)
        scalar = [template.spawn([3, i]) for i in range(self.B)]
        batched = [template.spawn([3, i]) for i in range(self.B)]
        for _ in range(4):
            ref = [
                s.sample(f, e, b, s.rng)
                for s, f, e, b in zip(scalar, frames, events, boxes)
            ]
            got = template.sample_batch(
                batched, frames, events, boxes, [s.rng for s in batched]
            )
            for r, g, a, b in zip(ref, got, scalar, batched):
                assert r.reuse_previous == g.reuse_previous
                assert a._frames_seen == b._frames_seen
                assert a._frames_sent == b._frames_sent

    def test_custom_scorer_stays_per_row(self):
        """ROI+Learned with a plugged scorer keeps the per-frame scorer
        contract (one call per row) and still matches width-1 calls."""
        frames, events, boxes = self._rank()
        calls = []

        def scorer(frame, event_map):
            calls.append(frame.shape)
            return event_map.astype(np.float64)

        template = ROILearned(compression=4.0, scorer=scorer)
        scalar = [template.spawn([5, i]) for i in range(self.B)]
        batched = [template.spawn([5, i]) for i in range(self.B)]
        ref = [
            s.sample(f, e, b, s.rng)
            for s, f, e, b in zip(scalar, frames, events, boxes)
        ]
        calls.clear()
        got = template.sample_batch(
            batched, frames, events, boxes, [s.rng for s in batched]
        )
        assert len(calls) == self.B
        for r, g in zip(ref, got):
            assert np.array_equal(r.mask, g.mask)


class _RowLoopStrategy(SamplingStrategy):
    """The per-row extension kernel ``docs/api.md`` documents."""

    name = "RowLoop"

    def sample_batch(self, strategies, frames, event_maps, roi_boxes, rngs):
        decisions = []
        for frame, rng in zip(frames, rngs):
            mask = random_mask(frame.shape, 1.0 / self.compression, rng)
            decisions.append(
                SamplingDecision(mask, apply_mask(frame, mask), None)
            )
        return decisions


class TestExtensionContract:
    """A third-party strategy implements ``sample_batch`` only."""

    def test_row_loop_kernel_runs_at_every_width(self, full_rank_and_alone):
        from repro.api.tracker import evaluate_strategy
        from repro.engine import build_strategy_graph, strategy_runner
        from repro.gaze.estimation import FittedGazeEstimator
        from repro.segmentation import ViTConfig, ViTSegmenter
        from repro.synth import DatasetConfig, SyntheticEyeDataset

        dataset = SyntheticEyeDataset(
            DatasetConfig(height=32, width=32, frames_per_sequence=4,
                          num_sequences=3)
        )
        vit = ViTSegmenter(
            ViTConfig(height=32, width=32, patch=8, dim=24, heads=3,
                      depth=1, decoder_depth=1),
            np.random.default_rng(0),
        )
        estimator = FittedGazeEstimator()
        estimator.fit(
            np.concatenate([dataset[i].segmentations for i in range(3)]),
            np.concatenate([dataset[i].gazes for i in range(3)]),
        )
        graph = build_strategy_graph(
            strategy=_RowLoopStrategy(4.0),
            segmenter=vit,
            gaze_estimator=estimator,
            rng=np.random.default_rng(7),
        )
        full, alone = full_rank_and_alone(
            strategy_runner(graph), [(i, dataset[i]) for i in range(3)]
        )
        assert full == alone
        result = evaluate_strategy(
            _RowLoopStrategy(4.0), vit, dataset, [0, 1, 2],
            np.random.default_rng(7),
        )
        assert 3.0 < result.mean_compression < 5.5

    def test_sample_alone_is_not_a_kernel(self):
        class SampleOnly(SamplingStrategy):
            def sample(self, frame, event_map, roi_box, rng):
                raise AssertionError("unreachable")

        frame, event, box = _fixture_frame()
        with pytest.raises(NotImplementedError):
            SampleOnly(4.0).sample_batch(
                [SampleOnly(4.0)], [frame], [event], [box], [RNG]
            )
