"""Regression tests for the shared throughput-measurement harness.

Each class pins one of the historical bugs:

* best-of-N timing used to report the *last* repeat's result next to the
  *best* repeat's wall time;
* an empty ``eval_indices`` crashed deep inside the warm-up
  (``evaluate([])``) instead of failing fast;
* a timed section rounding to 0 s divided by zero;
* ``throughput_tables`` raised ``KeyError`` when the modes reported
  different stage-name sets.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import BlissCamPipeline, ci
from repro.core.throughput import _rate, measure_throughput, throughput_tables
from repro.engine import StageTiming


def _fake_result(marker: float, frames: int = 5) -> SimpleNamespace:
    """The slice of EvaluationResult that measure_throughput consumes."""
    return SimpleNamespace(
        horizontal=SimpleNamespace(count=frames),
        predictions=np.zeros((frames, 2)),
        stats=SimpleNamespace(transmitted_bytes=[1] * frames),
        stage_timings={"marker": StageTiming(seconds=marker, frames=frames)},
    )


class _FakePipeline:
    """Deterministic evaluate() with a scripted duration per timed call."""

    def __init__(self, durations: list[float]):
        self.dataset = {i: None for i in range(8)}
        self._durations = iter(durations)
        self._calls = 0

    def evaluate(self, indices, batched=False, workers=None):
        self._calls += 1
        if self._calls <= 2:  # the two warm-up calls are untimed
            return _fake_result(marker=-1.0)
        duration = next(self._durations)
        time.sleep(duration)
        return _fake_result(marker=duration)


class TestBestOfPairing:
    def test_result_comes_from_the_best_repeat(self):
        # sequential repeats: 30 ms, 5 ms, 20 ms -> best is repeat 2;
        # batched repeats: 8 ms, 25 ms, 25 ms -> best is repeat 1.
        fake = _FakePipeline(
            durations=[0.03, 0.005, 0.02, 0.008, 0.025, 0.025]
        )
        record = measure_throughput(fake, [0, 1, 2], repeats=3)
        assert record["stage_seconds_sequential"]["marker"] == 0.005
        assert record["stage_seconds_batched"]["marker"] == 0.008
        assert record["sequential_s"] < 0.02
        assert record["batched_s"] < 0.025


class TestEmptyIndices:
    def test_empty_eval_indices_fails_fast(self):
        pipeline = BlissCamPipeline(ci())
        with pytest.raises(ValueError, match="non-empty"):
            measure_throughput(pipeline, [])


class TestZeroDuration:
    def test_rate_survives_zero_seconds(self):
        assert _rate(10, 0.0) == float("inf")
        assert _rate(10, 2.0) == 5.0
        assert _rate(0, 0.0) == float("inf")

    def test_tables_survive_zero_wall_times(self):
        record = {
            "sequences": 1,
            "frames": 5,
            "sequential_s": 0.0,
            "batched_s": 0.0,
            "sequential_fps": float("inf"),
            "batched_fps": float("inf"),
            "speedup": float("inf"),
            "bitwise_identical": True,
            "stage_seconds_sequential": {"a": 0.0},
            "stage_seconds_batched": {"a": 0.0},
        }
        tables = throughput_tables(record)
        assert len(tables) == 2
        for table in tables:
            assert table.render()


class TestStageNameUnion:
    def test_disjoint_stage_sets_default_to_zero(self):
        record = {
            "sequences": 2,
            "frames": 10,
            "sequential_s": 0.5,
            "batched_s": 0.25,
            "sequential_fps": 20.0,
            "batched_fps": 40.0,
            "speedup": 2.0,
            "bitwise_identical": True,
            "stage_seconds_sequential": {"eventify": 0.1, "roi": 0.2},
            "stage_seconds_batched": {"eventify": 0.05, "segment": 0.1},
        }
        tables = throughput_tables(record)  # KeyError before the fix
        rendered = tables[1].render()
        for name in ("eventify", "roi", "segment"):
            assert name in rendered

    def test_sharded_column_joins_the_union(self):
        record = {
            "sequences": 2,
            "frames": 10,
            "sequential_s": 0.5,
            "batched_s": 0.25,
            "sequential_fps": 20.0,
            "batched_fps": 40.0,
            "speedup": 2.0,
            "workers": 2,
            "sharded_s": 0.3,
            "sharded_fps": 33.3,
            "sharded_speedup": 1.67,
            "bitwise_identical": True,
            "stage_seconds_sequential": {"eventify": 0.1},
            "stage_seconds_batched": {"eventify": 0.05},
            "stage_seconds_sharded": {"eventify": 0.06, "extra": 0.01},
        }
        tables = throughput_tables(record)
        assert "sharded" in tables[0].render()
        assert "extra" in tables[1].render()


class TestEndToEndWithWorkers:
    def test_measure_throughput_records_sharded_mode(self, sharding):
        pipeline = BlissCamPipeline(ci(num_sequences=5, frames_per_sequence=6))
        pipeline.train([0, 1])
        record = measure_throughput(
            pipeline, [2, 3, 4], repeats=1, workers=2, **sharding
        )
        assert record["bitwise_identical"]
        assert record["workers"] == 2
        assert record["sharded_s"] > 0
        assert record["sharded_speedup"] > 0
        assert set(record["stage_seconds_sharded"]) == set(
            record["stage_seconds_sequential"]
        )
        # All three fps tables render without error.
        assert len(throughput_tables(record)) == 2
