"""Equivalence guarantees of the staged engine.

Three independent properties are pinned down, each exactly:

1. **full rank == each sequence alone** — a full-rank lockstep run must
   produce bitwise-identical ``EvaluationResult`` contents to running
   each sequence alone (ranks of width 1): every stage has one kernel,
   whose rows must not depend on the rank's width.
2. **staged == pre-refactor loop** — the stage decomposition must
   reproduce the original monolithic ``evaluate`` loop (including the
   deleted ``sensor.roi_predictor`` monkeypatch mechanism for ROI reuse)
   frame for frame; the reference transcriptions live in this file.
3. **fast paths == reference paths** — the packed-slab ViT's labels
   match the unpacked one-frame forward (the ``unpacked_reference``
   fixture, the retired ``forward_packed`` body), and run-length
   accounting matches the materialized token stream, on randomized
   inputs.
"""

import numpy as np
import pytest

from repro.api import STRATEGIES
from repro.api.tracker import BlissCamPipeline, ci, evaluate_strategy
from repro.gaze.metrics import angular_errors
from repro.sampling.roi import ROIReusePolicy, box_iou
from repro.segmentation import ViTConfig, ViTSegmenter
from repro.synth import DatasetConfig, SyntheticEyeDataset


@pytest.fixture(scope="module")
def trained_pipeline():
    pipe = BlissCamPipeline(ci(num_sequences=5, frames_per_sequence=8))
    pipe.train([0, 1])
    return pipe


def reference_evaluate(pipeline, eval_indices, reuse_window=1, sensor_seed=1234):
    """Faithful transcription of the pre-refactor monolithic evaluate loop.

    This is the seed repository's ``BlissCamPipeline.evaluate`` body —
    per-frame ``sensor.capture`` with the ROI-reuse policy implemented by
    temporarily monkeypatching ``sensor.roi_predictor`` — ported only to
    the engine's per-sequence stream semantics (one sensor spawn and a
    fresh gaze-fallback state per sequence).  The staged engine must
    reproduce it exactly.
    """
    template = pipeline.build_sensor(seed=sensor_seed)
    reuse = ROIReusePolicy(window=reuse_window)
    preds, truths = [], []
    records = []
    tokens_total = pipeline.segmenter.config.tokens
    for seq_index in eval_indices:
        seq = pipeline.dataset[seq_index]
        sensor = template.spawn([sensor_seed, seq_index])
        reuse.reset()
        pipeline.gaze_estimator.fallback_state = (0.0, 0.0)
        prev_seg_pred = None
        for t in range(len(seq)):
            if reuse_window > 1 and not reuse.should_predict():
                cached = reuse.current()
                original = sensor.roi_predictor
                sensor.roi_predictor = lambda e, s, _c=cached: _c
                out = sensor.capture(seq.frames[t], prev_seg_pred)
                sensor.roi_predictor = original
                reuse.tick()
            else:
                out = sensor.capture(seq.frames[t], prev_seg_pred)
                if out is not None:
                    reuse.update(out.roi_box_norm)
            if out is None:
                continue
            sparse, mask = sensor.host_decode(out)
            seg_pred = pipeline.segmenter.predict_packed(sparse, mask)
            prev_seg_pred = seg_pred
            preds.append(pipeline.gaze_estimator.predict(seg_pred))
            truths.append(seq.gazes[t])
            n = sparse.size
            patch = pipeline.segmenter.config.patch
            token_mask = mask.reshape(
                mask.shape[0] // patch, patch, mask.shape[1] // patch, patch
            ).any(axis=(1, 3))
            gt_box = seq.roi_boxes[t]
            records.append(
                {
                    "roi_fraction": (
                        (out.roi_box[2] - out.roi_box[0])
                        * (out.roi_box[3] - out.roi_box[1])
                        / n
                    ),
                    "sampled_fraction": out.sampled_pixels / n,
                    "token_fraction": token_mask.sum() / tokens_total,
                    "tx_bytes": out.transmitted_bytes,
                    "rle_ratio": out.rle_stats.compression_ratio,
                    "roi_iou": (
                        box_iou(out.roi_box, gt_box)
                        if gt_box is not None
                        else None
                    ),
                }
            )
    return np.array(preds), np.array(truths), records


class TestBatchedEqualsSequential:
    def test_full_result_bitwise_identical(
        self, trained_pipeline, evaluate_each_alone
    ):
        seq_res = evaluate_each_alone(trained_pipeline, [2, 3, 4])
        bat_res = trained_pipeline.evaluate([2, 3, 4])
        assert np.array_equal(seq_res.predictions, bat_res.predictions)
        assert np.array_equal(seq_res.truths, bat_res.truths)
        assert seq_res.horizontal == bat_res.horizontal
        assert seq_res.vertical == bat_res.vertical
        s, b = seq_res.stats, bat_res.stats
        assert s.roi_fractions == b.roi_fractions
        assert s.sampled_fractions == b.sampled_fractions
        assert s.valid_token_fractions == b.valid_token_fractions
        assert s.transmitted_bytes == b.transmitted_bytes
        assert s.rle_ratios == b.rle_ratios
        assert s.roi_ious == b.roi_ious

    def test_reuse_window_bitwise_identical(
        self, trained_pipeline, evaluate_each_alone
    ):
        seq_res = evaluate_each_alone(
            trained_pipeline, [2, 3, 4], reuse_window=4
        )
        bat_res = trained_pipeline.evaluate([2, 3, 4], reuse_window=4)
        assert np.array_equal(seq_res.predictions, bat_res.predictions)
        assert seq_res.stats.transmitted_bytes == bat_res.stats.transmitted_bytes


class TestStagedEqualsPreRefactor:
    @pytest.mark.parametrize("reuse_window", [1, 4])
    def test_tracking_parity(self, trained_pipeline, reuse_window):
        """The engine reproduces the monolithic loop exactly — including
        ROI reuse, whose monkeypatch mechanism the reuse stage replaced."""
        ref_preds, ref_truths, ref_records = reference_evaluate(
            trained_pipeline, [2, 3, 4], reuse_window=reuse_window
        )
        result = trained_pipeline.evaluate([2, 3, 4], reuse_window=reuse_window)
        assert np.array_equal(result.predictions, ref_preds)
        assert np.array_equal(result.truths, ref_truths)
        ref_h, ref_v = angular_errors(ref_preds, ref_truths)
        assert result.horizontal == ref_h
        assert result.vertical == ref_v
        stats = result.stats
        assert stats.roi_fractions == [r["roi_fraction"] for r in ref_records]
        assert stats.sampled_fractions == [
            r["sampled_fraction"] for r in ref_records
        ]
        assert stats.transmitted_bytes == [r["tx_bytes"] for r in ref_records]
        assert stats.rle_ratios == [r["rle_ratio"] for r in ref_records]
        assert stats.roi_ious == [
            r["roi_iou"] for r in ref_records if r["roi_iou"] is not None
        ]

    def test_strategy_parity(self, sharding):
        """``evaluate_strategy`` on the engine == the pre-refactor harness
        loop, for both a stochastic and a stateful (SKIP) strategy.

        The reference is the seed harness loop ported to the engine's
        per-sequence stream semantics: every sequence samples from its own
        ``strategy.spawn([seed, seq_index])`` clone and the gaze fallback
        resets at sequence boundaries (exactly as the tracking reference
        was ported to per-sequence sensor spawns in PR 1).
        """
        from repro.gaze.estimation import FittedGazeEstimator
        from repro.sampling.eventification import eventify
        from repro.synth import SEG_CLASSES

        dataset = SyntheticEyeDataset(
            DatasetConfig(
                height=32, width=32, frames_per_sequence=6, num_sequences=3,
                eye_scale=0.8,
            )
        )
        vit = ViTSegmenter(
            ViTConfig(height=32, width=32, patch=8, dim=24, heads=3,
                      depth=1, decoder_depth=1),
            np.random.default_rng(0),
        )
        eval_idx = [1, 2]
        segs = np.concatenate([dataset[i].segmentations for i in eval_idx])
        gazes = np.concatenate([dataset[i].gazes for i in eval_idx])

        def ref_sample(strategy, frame, event_map, roi_box, state):
            """Per-frame (mask, reuse) of the seed's ROI+Random and Skip."""
            height, width = frame.shape
            if strategy.name == "Skip":
                state["seen"] += 1
                sent_rate = state["sent"] / max(1, state["seen"])
                threshold = strategy.density_threshold * (
                    2.0 if sent_rate > 1.0 / strategy.compression else 0.5
                )
                if np.count_nonzero(event_map) / event_map.size < threshold:
                    return np.zeros(frame.shape, dtype=bool), True
                state["sent"] += 1
                return np.ones(frame.shape, dtype=bool), False
            r0, c0, r1, c1 = roi_box or (0, 0, height, width)
            area = max(1, (r1 - r0) * (c1 - c0))
            rate = float(np.clip(
                height * width / (strategy.compression * area), 1e-6, 1.0
            ))
            mask = np.zeros(frame.shape, dtype=bool)
            mask[r0:r1, c0:c1] = strategy.rng.random((r1 - r0, c1 - c0)) < rate
            return mask, False

        def ref_centroid(seg):
            """Pupil (else iris) centroid via per-frame index means."""
            for cls in (SEG_CLASSES["pupil"], SEG_CLASSES["iris"]):
                rows, cols = np.nonzero(seg == cls)
                if rows.size >= 3:
                    return (
                        float((rows.mean() + 0.5) / seg.shape[0]),
                        float((cols.mean() + 0.5) / seg.shape[0]),
                    )
            return None

        for name in ("Ours (ROI+Random)", "Skip"):
            # Pre-refactor loop under per-sequence stream semantics, with
            # sampling, segmentation and centroid written out per frame
            # instead of calling the engine's kernels.  The seed
            # derivation mirrors build_strategy_graph exactly.
            est_ref = FittedGazeEstimator()
            est_ref.fit(segs, gazes)
            template = STRATEGIES[name](4.0, dataset=dataset)
            seed = int(np.random.default_rng(7).integers(2**32))
            preds_ref, truths_ref, comps_ref = [], [], []
            for seq_index in eval_idx:
                seq = dataset[seq_index]
                strategy = template.spawn([seed, seq_index])
                state = {"seen": 0, "sent": 0}
                est_ref.fallback_state = est_ref.INITIAL_FALLBACK
                prev_seg = None
                for t in range(1, len(seq)):
                    frame = seq.frames[t]
                    event_map = eventify(seq.frames[t - 1], frame)
                    mask, reuse = ref_sample(
                        strategy, frame, event_map, seq.roi_boxes[t], state
                    )
                    if reuse and prev_seg is not None:
                        seg_pred = prev_seg
                    else:
                        logits = vit.forward((frame * mask)[None], mask[None])
                        seg_pred = np.argmax(logits[0], axis=-1)
                        sampled = np.count_nonzero(mask)
                        comps_ref.append(
                            min(mask.size / sampled, 1e6) if sampled else 1e6
                        )
                    prev_seg = seg_pred
                    preds_ref.append(
                        est_ref.predict_from_centroid(ref_centroid(seg_pred))
                    )
                    truths_ref.append(seq.gazes[t])

            # Engine-backed harness with identically seeded inputs, in
            # every execution mode.
            for mode in ({}, {"shards": sharding}):
                est_new = FittedGazeEstimator()
                est_new.fit(segs, gazes)
                result = evaluate_strategy(
                    STRATEGIES[name](4.0, dataset=dataset),
                    vit,
                    dataset,
                    eval_idx,
                    np.random.default_rng(7),
                    gaze_estimator=est_new,
                    **mode,
                )
                assert result.frames == len(preds_ref)
                expected_compression = (
                    float(np.mean(comps_ref)) if comps_ref else 1.0
                )
                assert result.mean_compression == expected_compression
                ref_h, ref_v = angular_errors(
                    np.array(preds_ref), np.array(truths_ref)
                )
                assert result.horizontal == ref_h
                assert result.vertical == ref_v


class TestVectorizedKernels:
    def test_rle_stream_stats_matches_encode(self):
        from repro.hardware.sensor.rle import RunLengthCodec

        codec = RunLengthCodec()
        rng = np.random.default_rng(5)
        streams = [
            np.zeros(0, dtype=np.int64),
            np.zeros(10_000, dtype=np.int64),  # run splitting (> 4095)
            np.ones(17, dtype=np.int64),
            rng.integers(0, 1024, size=500) * (rng.random(500) < 0.2),
        ]
        for _ in range(50):
            n = int(rng.integers(1, 2000))
            streams.append(
                rng.integers(0, 1024, size=n) * (rng.random(n) < rng.random())
            )
        for stream in streams:
            _, slow = codec.encode(stream)
            assert codec.rank_stats(stream, [stream.size]) == [slow]

    def test_packed_batch_matches_per_frame(self, unpacked_reference):
        """The packed slab gives every frame the logits of its own width-1
        call, bitwise, and the labels of the unpacked one-frame forward.

        The rank holds 11 distinct valid-token counts, a count collision
        (frames 0 and 5), an empty lane (frame 2) and a frame with exactly
        one valid token (frame 1), whose width-1 slab is padded to two
        rows.
        """
        rng = np.random.default_rng(11)
        vit = ViTSegmenter(
            ViTConfig(height=32, width=32, patch=8, dim=24, heads=3,
                      depth=1, decoder_depth=1),
            rng,
        )
        counts = [5, 1, 0, 3, 7, 5, 9, 12, 16, 2, 4, 11, 14]
        frames = rng.random((len(counts), 32, 32))
        masks = np.zeros((len(counts), 32, 32), dtype=bool)
        for i, count in enumerate(counts):
            for t in rng.choice(16, size=count, replace=False):
                r, c = divmod(int(t), 4)
                patch = rng.random((8, 8)) < 0.2
                patch.flat[rng.integers(64)] = True
                masks[i, r * 8 : (r + 1) * 8, c * 8 : (c + 1) * 8] = patch
        assert len(set(counts) - {0}) >= 8
        batched = vit.predict_packed_batch(frames, masks)
        rows, tokens, logits = vit._packed_logits(frames, masks)
        for i, count in enumerate(counts):
            reference, valid = unpacked_reference(vit, frames[i], masks[i])
            assert valid.sum() == count
            assert np.array_equal(
                batched[i], np.argmax(reference, axis=-1)
            ), f"frame {i} labels diverged"
            solo_rows, solo_tokens, solo = vit._packed_logits(
                frames[i : i + 1], masks[i : i + 1]
            )
            assert np.array_equal(solo_rows, np.zeros(count, dtype=int))
            assert np.array_equal(tokens[rows == i], solo_tokens)
            assert logits[rows == i].tobytes() == solo.tobytes(), (
                f"frame {i} logits depend on its rank"
            )
