"""Sharded execution: multi-process shard merge == in-process modes.

The sharded mode cuts one contiguous shard per worker and runs each
shard as one lockstep rank.  Its contract is that this partition is
invisible in the results: contexts come back in
sequence-major order, per-shard ``engine.stage`` spans sum to the
in-process stage counts, and the
numeric content is bitwise-identical to the in-process run and to each
sequence run alone (per-sequence random streams are keyed by sequence index, never by execution
order or process placement).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.api import STRATEGIES
from repro.api.tracker import BlissCamPipeline, ci, evaluate_strategy
from repro.engine import SequenceRunner, Shards, Stage, contiguous_shards
from repro.obs import Tracer, install_tracer


@pytest.fixture(scope="module")
def trained_pipeline():
    pipe = BlissCamPipeline(ci(num_sequences=6, frames_per_sequence=8))
    pipe.train([0, 1])
    return pipe


class Probe(Stage):
    """Stamps each frame with its position and its rank's width."""

    name = "probe"

    def process_batch(self, ctxs, seqs):
        for ctx in ctxs:
            ctx.gaze_pred = (float(ctx.seq_index), float(ctx.t))
            ctx.stats["rank_width"] = len(ctxs)


class Seq:
    frames = np.zeros((3, 4, 4))


class VarSeq:
    """A sequence with a chosen frame count (unequal shard loads)."""

    def __init__(self, n_frames: int):
        self.frames = np.zeros((n_frames, 4, 4))


class FatProbe(Stage):
    """A stage that writes a bulky per-frame product (like a readout)."""

    name = "fat"

    def process_batch(self, ctxs, seqs):
        for ctx in ctxs:
            ctx.gaze_pred = (float(ctx.seq_index), float(ctx.t))
            ctx.readout = np.full((64, 64), float(ctx.t))


class FailSequenceZero(Stage):
    """Raises in the rank that holds sequence 0 (the first shard)."""

    name = "fail"

    def process_batch(self, ctxs, seqs):
        if any(ctx.seq_index == 0 for ctx in ctxs):
            raise RuntimeError("stage failed on sequence 0")
        for ctx in ctxs:
            ctx.gaze_pred = (float(ctx.seq_index), float(ctx.t))


class TestContiguousShards:
    def test_more_shards_than_items_drops_empty_pieces(self):
        shards = contiguous_shards([1, 2, 3], 8)
        assert shards == [[1], [2], [3]]

    def test_nonpositive_shard_count_raises(self):
        # Silently returning [] would lose every item.
        for bad in (0, -1, -7):
            with pytest.raises(ValueError, match="n_shards"):
                contiguous_shards([1, 2, 3], bad)

    def test_single_item(self):
        assert contiguous_shards(["only"], 1) == [["only"]]
        assert contiguous_shards(["only"], 5) == [["only"]]

    def test_empty_items(self):
        assert contiguous_shards([], 3) == []

    def test_concat_reproduces_input_in_order(self):
        # The property every fixed-order merge in the repo stands on.
        for n_items in (1, 2, 5, 7, 16, 33):
            items = list(range(n_items))
            for n_shards in (1, 2, 3, 4, 8, 40):
                shards = contiguous_shards(items, n_shards)
                assert [x for shard in shards for x in shard] == items
                assert all(shard for shard in shards)
                assert len(shards) <= n_shards
                # Balanced: piece sizes differ by at most one.
                sizes = [len(shard) for shard in shards]
                assert max(sizes) - min(sizes) <= 1


class TestShardedRunner:
    def test_invalid_workers_rejected(self, sharding):
        with pytest.raises(ValueError):
            replace(sharding, workers=0)

    def test_workers_one_runs_in_process(self):
        run = SequenceRunner([Probe()]).run([(0, Seq())], shards=None)
        assert run.workers == 1
        assert len(run.contexts) == 3

    def test_sequence_major_order_across_shards(self, sharding):
        run = SequenceRunner([Probe()]).run(
            [(i, Seq()) for i in (7, 3, 9, 5, 2)], shards=sharding
        )
        assert run.workers == 2
        assert [(c.seq_index, c.t) for c in run.contexts] == [
            (i, t) for i in (7, 3, 9, 5, 2) for t in range(3)
        ]

    def test_workers_clamped_to_sequence_count(self, sharding):
        run = SequenceRunner([Probe()]).run(
            [(0, Seq()), (1, Seq())], shards=replace(sharding, workers=8)
        )
        assert run.workers == 2
        assert len(run.contexts) == 6

    def test_one_rank_per_worker(self, sharding):
        """A sharded run dispatches exactly one shard per worker and runs
        each shard as one lockstep rank of its sequences."""
        sequences = [(i, Seq()) for i in range(7)]
        for workers in (2, 3):
            run = SequenceRunner([Probe()]).run(
                sequences, shards=replace(sharding, workers=workers)
            )
            assert run.transport["dispatches"] == workers
            widths = [
                len(shard)
                for shard in contiguous_shards(sequences, workers)
                for _ in shard
                for _ in range(3)
            ]
            assert [c.stats["rank_width"] for c in run.contexts] == widths

    def test_timings_summed_over_shards(self, sharding, traced_stages):
        # Five sequences over two workers: the shard spans must sum to
        # each shard's sequences run as one rank in-process.
        sequences = [(i, Seq()) for i in range(5)]
        runner = SequenceRunner([Probe()])
        _, in_process = traced_stages(
            lambda: [
                runner.run(shard) for shard in contiguous_shards(sequences, 2)
            ]
        )
        _, sharded = traced_stages(
            lambda: SequenceRunner([Probe()]).run(
                sequences, shards=sharding
            )
        )
        assert sharded["probe"]["frames"] == in_process["probe"]["frames"]
        assert sharded["probe"]["calls"] == in_process["probe"]["calls"]
        assert sharded["probe"]["wall_s"] > 0

    def test_empty_sequence_list(self, sharding):
        run = SequenceRunner([Probe()]).run(
            [], shards=replace(sharding, workers=4)
        )
        assert run.contexts == []
        assert run.workers == 1

    def test_injected_executor_without_workers_rejected(self, sharding):
        # Silently ignoring an injected pool (and running in-process)
        # would defeat the caller's parallelism intent — fail loudly.
        with pytest.raises(ValueError, match="workers >= 2"):
            Shards(sharding.executor, sharding.channel, 1)

    def test_injected_executor_matches_in_process(
        self, sharding, traced_stages
    ):
        """The persistent pool with one shard per worker is invisible in
        the results: same sequence-major order, same contents, same
        summed stage-span counts as the in-process run — on first use
        and on reuse."""
        sequences = [(i, Seq()) for i in (7, 3, 9, 5, 2, 8, 1)]
        solo, solo_stages = traced_stages(
            lambda: SequenceRunner([Probe()]).run(sequences)
        )
        for _ in range(2):
            run, stages = traced_stages(
                lambda: SequenceRunner([Probe()]).run(
                    sequences, shards=sharding
                )
            )
            assert [(c.seq_index, c.t, c.gaze_pred) for c in run.contexts] == [
                (c.seq_index, c.t, c.gaze_pred) for c in solo.contexts
            ]
            assert stages["probe"]["frames"] == solo_stages["probe"]["frames"]

    def test_unequal_lengths_merge_sequence_major(self, sharding):
        """One shard per worker over sequences of *unequal* lengths still
        merges sequence-major: a shard's lanes drop out of its rank as
        they end, and the parent reduces futures in shard order, so
        completion order is invisible."""
        lengths = [9, 1, 7, 2, 8, 1, 6, 3, 5, 2, 4, 1]
        sequences = [(i, VarSeq(n)) for i, n in enumerate(lengths)]
        reference = SequenceRunner([Probe()]).run(sequences)
        sharded = SequenceRunner([Probe()]).run(
            sequences, shards=sharding
        )
        assert sharded.transport["dispatches"] == 2
        assert [(c.seq_index, c.t) for c in sharded.contexts] == [
            (c.seq_index, c.t) for c in reference.contexts
        ]
        assert [(c.seq_index, c.t) for c in reference.contexts] == [
            (i, t) for i, n in enumerate(lengths) for t in range(n)
        ]

    def test_sharded_merge_drops_intermediates_when_asked(self, sharding):
        """retain_intermediates=False must hold across the shard merge:
        workers release bulky per-frame products before contexts cross
        back to the parent, so merges ship results, not frame data."""
        sequences = [(i, Seq()) for i in range(4)]
        slim = SequenceRunner([FatProbe()], retain_intermediates=False).run(
            sequences, shards=sharding
        )
        fat = SequenceRunner([FatProbe()]).run(
            sequences, shards=sharding
        )
        assert all(c.readout is None for c in slim.contexts)
        assert all(c.gaze_pred is not None for c in slim.contexts)
        assert all(c.readout is not None for c in fat.contexts)


    def test_failed_shard_still_consumes_every_shard(self, sharding):
        """A shard that raises fails the run only after every other
        shard's result was consumed: no job is left unmerged and the
        healthy shard's stage spans come home."""
        executor = sharding.executor
        unmerged = executor.unmerged_jobs
        tracer = Tracer()
        with install_tracer(tracer):
            with pytest.raises(RuntimeError, match="sequence 0"):
                SequenceRunner([FailSequenceZero()]).run(
                    [(i, Seq()) for i in range(4)], shards=sharding
                )
        assert executor.unmerged_jobs == unmerged
        (stage,) = [s for s in tracer.spans if s.name == "engine.stage"]
        assert stage.attrs["frames"] == 2 * 3


class TestShardedTracking:
    def test_three_modes_cross_checked_bitwise(
        self, trained_pipeline, sharding, evaluate_each_alone
    ):
        """Each sequence alone, one full rank and sharded all produce
        identical evaluation results."""
        indices = [2, 3, 4, 5]
        seq = evaluate_each_alone(trained_pipeline, indices)
        runs = {
            "full rank": trained_pipeline.evaluate(indices),
            "sharded": trained_pipeline.evaluate(
                indices, shards=sharding
            ),
            "sharded x3": trained_pipeline.evaluate(
                indices, shards=replace(sharding, workers=3)
            ),
        }
        for name, other in runs.items():
            assert np.array_equal(seq.predictions, other.predictions), name
            assert np.array_equal(seq.truths, other.truths), name
            assert seq.stats.transmitted_bytes == (
                other.stats.transmitted_bytes
            ), name
            assert seq.stats.rle_ratios == other.stats.rle_ratios, name
            assert seq.stats.roi_fractions == other.stats.roi_fractions, name
            assert seq.horizontal == other.horizontal, name
            assert seq.vertical == other.vertical, name

    def test_sharded_with_reuse_window(self, trained_pipeline, sharding):
        seq = trained_pipeline.evaluate([2, 3, 4], reuse_window=4)
        shard = trained_pipeline.evaluate(
            [2, 3, 4], reuse_window=4, shards=sharding
        )
        assert np.array_equal(seq.predictions, shard.predictions)
        assert seq.stats.transmitted_bytes == shard.stats.transmitted_bytes

    def test_sharded_stage_spans_cover_graph(
        self, trained_pipeline, sharding, traced_stages
    ):
        result, stages = traced_stages(
            lambda: trained_pipeline.evaluate([2, 3, 4], shards=sharding)
        )
        assert set(stages) == {
            "eventify", "roi", "sample", "readout", "segment", "gaze", "stats",
        }
        evaluated_frames = result.predictions.shape[0]
        assert stages["segment"]["frames"] == evaluated_frames


class TestShardedStrategySweep:
    def test_fig15_sweep_matches_sequential_in_all_modes(
        self, trained_pipeline, sharding
    ):
        """A Fig. 15-style sweep (several strategies, shared dataset) is
        bitwise-reproducible in-process and sharded (three sequences over
        two workers: shards of one and two sequences, each run as one
        rank) — the per-sequence strategy RNG spawns make it so."""
        dataset = trained_pipeline.dataset
        eval_idx = [2, 3, 4]
        for name in ("Ours (ROI+Random)", "Full+Random", "Skip", "ROI+Fixed"):
            results = {
                mode: evaluate_strategy(
                    STRATEGIES[name](4.0, dataset=dataset),
                    trained_pipeline.segmenter,
                    dataset,
                    eval_idx,
                    np.random.default_rng(21),
                    **kwargs,
                )
                for mode, kwargs in [
                    ("in-process", {}),
                    ("sharded", {"shards": sharding}),
                ]
            }
            ref = results["in-process"]
            for mode, result in results.items():
                assert result.horizontal == ref.horizontal, (name, mode)
                assert result.vertical == ref.vertical, (name, mode)
                assert result.mean_compression == ref.mean_compression, (
                    name, mode,
                )
                assert result.frames == ref.frames, (name, mode)
