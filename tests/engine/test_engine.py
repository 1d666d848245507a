"""Engine core tests: graph construction, context invariants, runner modes."""

import numpy as np
import pytest

from repro.api.tracker import BlissCamPipeline, ci
from repro.engine import (
    EventifyStage,
    FrameContext,
    SensorSpawnFactory,
    SequenceRunner,
    SequenceState,
    Stage,
    StageGraph,
    build_strategy_graph,
    build_tracking_graph,
)


@pytest.fixture(scope="module")
def trained_pipeline():
    pipe = BlissCamPipeline(ci(num_sequences=4, frames_per_sequence=8))
    pipe.train([0, 1])
    return pipe


class TestStageGraph:
    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            StageGraph([])

    def test_non_stage_rejected(self):
        with pytest.raises(TypeError):
            StageGraph([EventifyStage(), object()])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            StageGraph([EventifyStage(), EventifyStage()])

    def test_stage_names_in_order(self, trained_pipeline):
        graph = build_tracking_graph(
            predictor=lambda e, s: np.array([0.1, 0.1, 0.9, 0.9]),
            segmenter=trained_pipeline.segmenter,
            gaze_estimator=trained_pipeline.gaze_estimator,
            height=64,
            width=64,
        )
        assert graph.stage_names == [
            "eventify",
            "roi",
            "sample",
            "readout",
            "segment",
            "gaze",
            "stats",
        ]

    def test_strategy_graph_names(self, trained_pipeline):
        from repro.sampling.strategies import ROIRandom

        graph = build_strategy_graph(
            strategy=ROIRandom(4.0),
            segmenter=trained_pipeline.segmenter,
            gaze_estimator=trained_pipeline.gaze_estimator,
            rng=np.random.default_rng(0),
        )
        assert graph.stage_names == [
            "eventify",
            "strategy_sample",
            "segment",
            "gaze",
        ]

    def test_bad_reuse_window_rejected(self):
        from repro.engine import ROIPredictStage, ROIReuseStage

        inner = ROIPredictStage(lambda e, s: np.zeros(4), 64, 64)
        with pytest.raises(ValueError):
            ROIReuseStage(inner, window=0)


class TestROIReuseRank:
    def test_lanes_out_of_phase_match_width_one(self):
        """A rank whose lanes disagree on predict-vs-reuse (clients joining
        a served micro-batch at different times) splits into reuse lanes
        and one predicting sub-rank, and equals running each lane alone."""
        from repro.engine import ROIPredictStage, ROIReuseStage

        def predictor(event_map, prev_seg):
            return np.array([0.1, 0.2, 0.5, 0.6]) + event_map.mean()

        def run(ranks):
            stage = ROIReuseStage(ROIPredictStage(predictor, 8, 8), window=3)
            states = [SequenceState(seq_index=i) for i in range(2)]
            for state in states:
                stage.start_sequence(state)
            out = []
            for rank in ranks:
                ctxs = [
                    FrameContext(
                        seq_index=i, t=t, frame=np.zeros((8, 8)),
                        event_map=np.full((8, 8), 0.01 * (i + t)),
                    )
                    for i, t in rank
                ]
                stage.process_batch(ctxs, [states[i] for i, _ in rank])
                out += [(c.seq_index, c.t, c.roi_box, c.roi_reused) for c in ctxs]
            return sorted(out)

        # Lane 1 starts two frames after lane 0, so their reuse windows
        # interleave inside shared ranks.
        shared = [[(0, 0)], [(0, 1)], [(0, 2), (1, 0)], [(0, 3), (1, 1)],
                  [(0, 4), (1, 2)], [(0, 5), (1, 3)]]
        alone = [[pair] for rank in shared for pair in rank]
        mixed = run(shared)
        assert mixed == run(alone)
        assert any(reused for *_, reused in mixed)
        assert any(not reused for *_, reused in mixed)


class TestFrameContextInvariants:
    def test_all_contexts_validate_after_run(
        self, trained_pipeline, traced_stages
    ):
        # Run the real tracking graph and check every emitted context.
        template = trained_pipeline._sensor_template(77)
        graph = build_tracking_graph(
            predictor=template.roi_predictor,
            segmenter=trained_pipeline.segmenter,
            gaze_estimator=trained_pipeline.gaze_estimator,
            height=64,
            width=64,
        )
        runner = SequenceRunner(graph, SensorSpawnFactory(template, (77,)))
        run, stages = traced_stages(
            lambda: runner.run([(2, trained_pipeline.dataset[2])])
        )
        assert len(run.contexts) == 8
        assert run.contexts[0].skipped  # bootstrap frame
        assert len(run.evaluated) == 7
        for ctx in run.contexts:
            ctx.validate()
        # every stage called and timed over frames
        assert list(stages) == list(graph.stage_names)
        for stage in stages.values():
            assert stage["calls"] > 0 and stage["frames"] > 0
        for ctx in run.evaluated:
            # ROI box well-formed, gaze emitted
            assert ctx.gaze_pred is not None
            assert set(ctx.stats) == {
                "roi_fraction",
                "sampled_fraction",
                "token_fraction",
                "tx_bytes",
                "rle_ratio",
                "roi_iou",
            }
        assert stages["segment"]["wall_s"] > 0

    def test_validate_catches_leaky_sparse_frame(self):
        ctx = FrameContext(seq_index=0, t=1, frame=np.zeros((8, 8)))
        ctx.mask = np.zeros((8, 8), dtype=bool)
        ctx.sparse_frame = np.ones((8, 8))
        with pytest.raises(AssertionError):
            ctx.validate()

    def test_validate_catches_degenerate_box(self):
        ctx = FrameContext(seq_index=0, t=1, frame=np.zeros((8, 8)))
        ctx.roi_box = (3, 4, 3, 6)
        with pytest.raises(AssertionError):
            ctx.validate()

    def test_skipped_context_skips_validation(self):
        ctx = FrameContext(seq_index=0, t=0, frame=np.zeros((8, 8)))
        ctx.skipped = True
        ctx.roi_box = (3, 4, 3, 6)  # would fail if not skipped
        ctx.validate()


class TestRunnerExecution:
    def test_stage_exception_propagates(self):
        class Boom(Stage):
            name = "boom"

            def process_batch(self, ctxs, seqs):
                raise RuntimeError("stage failure")

        class Seq:
            frames = np.zeros((2, 4, 4))

        runner = SequenceRunner([Boom()])
        with pytest.raises(RuntimeError, match="stage failure"):
            runner.run([(0, Seq())])

    def test_stage_without_kernel_fails_loudly(self):
        class NoKernel(Stage):
            name = "no_kernel"

        class Seq:
            frames = np.zeros((2, 4, 4))

        with pytest.raises(NotImplementedError):
            SequenceRunner([NoKernel()]).run([(0, Seq())])

    def test_state_factory_called_per_sequence(self):
        seen = []

        class Probe(Stage):
            name = "probe"

            def process_batch(self, ctxs, seqs):
                seen.extend((s.seq_index, c.t) for c, s in zip(ctxs, seqs))

        class Seq:
            frames = np.zeros((3, 4, 4))

        def factory(i):
            return SequenceState(seq_index=i)

        SequenceRunner([Probe()], factory).run([(5, Seq()), (9, Seq())])
        assert seen == [(5, 0), (9, 0), (5, 1), (9, 1), (5, 2), (9, 2)]

    def test_batched_lockstep_handles_unequal_lengths(self):
        order = []

        class Probe(Stage):
            name = "probe"

            def process_batch(self, ctxs, seqs):
                order.append([(c.seq_index, c.t) for c in ctxs])

        class Short:
            frames = np.zeros((2, 4, 4))

        class Long:
            frames = np.zeros((4, 4, 4))

        run = SequenceRunner([Probe()]).run([(0, Short()), (1, Long())])
        assert order == [
            [(0, 0), (1, 0)],
            [(0, 1), (1, 1)],
            [(1, 2)],
            [(1, 3)],
        ]
        # Sequence-major output ordering regardless of lockstep execution.
        assert [(c.seq_index, c.t) for c in run.contexts] == [
            (0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (1, 3),
        ]

    def test_empty_sequence_list_is_symmetric(self):
        run = SequenceRunner([EventifyStage()]).run([])
        assert run.contexts == []
        assert run.evaluated == []

    def test_duplicate_sequence_indices_are_independent_lanes(
        self, trained_pipeline, evaluate_each_alone
    ):
        """A repeated index must be two lanes, not one double-processed
        lane (regression: lanes used to be keyed by sequence index)."""
        seq_res = evaluate_each_alone(trained_pipeline, [2, 2, 3])
        bat_res = trained_pipeline.evaluate([2, 2, 3])
        assert np.array_equal(seq_res.predictions, bat_res.predictions)
        assert seq_res.stats.transmitted_bytes == bat_res.stats.transmitted_bytes
        # Both copies of sequence 2 ran identical spawned streams.
        single = trained_pipeline.evaluate([2])
        n = single.predictions.shape[0]
        assert np.array_equal(
            bat_res.predictions[:n], bat_res.predictions[n : 2 * n]
        )

    def test_retained_intermediates_are_dropped_when_disabled(self):
        from repro.engine import SequenceRunner, Stage

        class Mark(Stage):
            name = "mark"

            def process_batch(self, ctxs, seqs):
                for ctx in ctxs:
                    ctx.event_map = np.ones(ctx.frame.shape, dtype=bool)
                    ctx.gaze_pred = (1.0, 2.0)
                    ctx.stats = {"x": 1}

        class Seq:
            frames = np.zeros((2, 4, 4))

        run = SequenceRunner([Mark()], retain_intermediates=False).run(
            [(0, Seq())]
        )
        for ctx in run.evaluated:
            assert ctx.event_map is None  # released
            assert ctx.gaze_pred == (1.0, 2.0)  # scalars kept
            assert ctx.stats == {"x": 1}
