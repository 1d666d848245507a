"""Bitwise parity: ``Session.run`` vs the imperative tracker surface.

The front door must be a pure re-plumbing: for each accuracy workload,
the metrics coming out of ``Session.run(spec)`` are bitwise-identical to
what ``BlissCamPipeline.evaluate`` and ``evaluate_strategy`` produce
from the same inputs.  Exact float equality everywhere — no tolerances.
"""

import copy
import dataclasses

import numpy as np
import pytest

from repro.api import ExperimentSpec, Session
from repro.api.session import system_config
from repro.api.workloads import strategy_rng
from repro.api import STRATEGIES
from repro.api.tracker import BlissCamPipeline, evaluate_strategy
from repro.api.tracker import train_for_strategy
from repro.obs import Tracer, summarize
from repro.segmentation import ViTSegmenter
from repro.synth import SyntheticEyeDataset


class TestEvaluateParity:
    SPEC = {
        "workload": "evaluate",
        "dataset": {"num_sequences": 3, "frames_per_sequence": 6},
        "training": {"epochs": 1},
    }

    @pytest.fixture(scope="class")
    def api_trace(self):
        return Tracer()

    @pytest.fixture(scope="class")
    def api_result(self, api_trace):
        with Session(trace=api_trace) as session:
            yield session.run(ExperimentSpec.from_dict(self.SPEC))

    @pytest.fixture(scope="class")
    def legacy_result(self):
        pipeline = BlissCamPipeline(
            system_config(ExperimentSpec.from_dict(self.SPEC))
        )
        pipeline.train()
        return pipeline.evaluate()

    def test_error_stats_bitwise(self, api_result, legacy_result):
        assert api_result.metrics["horizontal"] == dataclasses.asdict(
            legacy_result.horizontal
        )
        assert api_result.metrics["vertical"] == dataclasses.asdict(
            legacy_result.vertical
        )

    def test_workload_stats_bitwise(self, api_result, legacy_result):
        m = api_result.metrics
        assert m["mean_compression"] == legacy_result.stats.mean_compression
        assert m["mean_roi_iou"] == legacy_result.stats.mean_roi_iou
        assert m["mean_transmitted_bytes"] == float(
            np.mean(legacy_result.stats.transmitted_bytes)
        )

    def test_workload_profile_bitwise(self, api_result, legacy_result):
        assert api_result.workload_profile == dataclasses.asdict(
            legacy_result.stats.to_profile()
        )

    def test_stage_spans_cover_the_graph(self, api_result, api_trace):
        assert set(summarize(api_trace.to_records())["stages"]) == {
            "eventify", "roi", "sample", "readout", "segment", "gaze",
            "stats",
        }


class TestStrategySweepParity:
    NAMES = ["Full+Random", "Ours (ROI+Random)"]
    SPEC = {
        "workload": "strategy_sweep",
        "dataset": {"num_sequences": 3, "frames_per_sequence": 6},
        "strategy": {
            "names": NAMES,
            "compression": 4.0,
            "train_epochs": 1,
        },
    }

    def test_sweep_matches_legacy_harness(self):
        spec = ExperimentSpec.from_dict(self.SPEC)
        with Session() as session:
            api = session.run(spec)

        config = system_config(spec)
        dataset = SyntheticEyeDataset(config.dataset)
        train_idx, eval_idx = dataset.split()
        for name in self.NAMES:
            # The workload's documented RNG regime: one stream per
            # strategy keyed by (sweep seed, name), training and
            # evaluation drawing from it in order.
            rng = strategy_rng(spec.strategy.seed, name)
            strategy = STRATEGIES.get(name)(4.0, dataset)
            segmenter = ViTSegmenter(config.vit, rng)
            train_for_strategy(
                segmenter, strategy, dataset, train_idx, 1, rng
            )
            legacy = evaluate_strategy(
                strategy, segmenter, dataset, eval_idx, rng
            )
            got = api.metrics["strategies"][name]
            assert got["horizontal"] == dataclasses.asdict(legacy.horizontal)
            assert got["vertical"] == dataclasses.asdict(legacy.vertical)
            assert got["mean_compression"] == legacy.mean_compression
            assert got["frames"] == legacy.frames

    def test_use_gt_roi_flag_reaches_the_graph(self):
        # With the flag off, ROI strategies fall back to full-frame
        # boxes — the results must change (the flag is not a no-op),
        # while the cached training is reused (eval-only knob).
        spec = ExperimentSpec.from_dict(self.SPEC)
        no_roi = ExperimentSpec.from_dict(
            {
                **self.SPEC,
                "strategy": {**self.SPEC["strategy"], "use_gt_roi": False},
            }
        )
        with Session() as session:
            with_roi = session.run(spec)
            misses = session.stats()["train_cache_misses"]
            without_roi = session.run(no_roi)
            assert session.stats()["train_cache_misses"] == misses
        ours = "Ours (ROI+Random)"
        assert (
            with_roi.metrics["strategies"][ours]
            != without_roi.metrics["strategies"][ours]
        )

    def test_cache_hit_rerun_is_bitwise_stable(self):
        # The memoized (strategy, segmenter, RNG-state) triple must make
        # a re-run replay evaluation exactly, not continue the stream.
        spec = ExperimentSpec.from_dict(self.SPEC)
        with Session() as session:
            first = session.run(spec)
            second = session.run(spec)
            assert session.stats()["train_cache_hits"] > 0
        assert first.metrics == second.metrics

