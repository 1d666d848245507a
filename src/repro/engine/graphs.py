"""Canonical stage-graph configurations.

The tracking graph is the full in-sensor/host dataflow of Fig. 8 — what
``BlissCamPipeline.evaluate`` runs.  The strategy graph is the Fig. 12/15
harness — what ``repro.api.tracker.evaluate_strategy`` runs.  Both are plain
:class:`~repro.engine.stage.StageGraph` instances over the same runner, so
every figure benchmark and the CLI exercise one code path.

Everything a graph closes over (predictors, state factories) is kept as a
plain picklable class rather than a closure: the sharded execution mode
ships the runner — graph, stages and state factory included — to worker
processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.engine.context import SequenceState
from repro.engine.runner import SequenceRunner
from repro.engine.stage import StageGraph
from repro.engine.stages import (
    EventifyPairStage,
    EventifyStage,
    GazeRegressStage,
    ROIPredictStage,
    ROIReuseStage,
    ReadoutStage,
    SampleStage,
    SegmentOrReuseStage,
    SegmentStage,
    StatsCollectorStage,
    StrategySampleStage,
)

__all__ = [
    "build_tracking_graph",
    "build_strategy_graph",
    "tracking_runner",
    "strategy_runner",
    "SensorSpawnFactory",
]


def build_tracking_graph(
    *,
    predictor: Callable[[np.ndarray, np.ndarray | None], np.ndarray],
    segmenter,
    gaze_estimator,
    height: int,
    width: int,
    reuse_window: int = 1,
) -> StageGraph:
    """The full BlissCam dataflow as a stage graph.

    ``predictor`` is the (margin-expanded) ROI predictor callable; the
    reuse policy wraps it as a first-class stage — no sensor internals are
    touched.
    """
    tokens_total = segmenter.config.tokens
    return StageGraph(
        [
            EventifyStage(),
            ROIReuseStage(
                ROIPredictStage(predictor, height, width), window=reuse_window
            ),
            SampleStage(),
            ReadoutStage(),
            SegmentStage(segmenter),
            GazeRegressStage(gaze_estimator),
            StatsCollectorStage(tokens_total, segmenter.config.patch),
        ]
    )


@dataclass
class SensorSpawnFactory:
    """``seq_index -> SequenceState`` with a per-sequence sensor spawn.

    A plain class (not a closure) so sharded runners can pickle it to
    worker processes.  Runtime noise streams are keyed by
    ``(sensor_seed, seq_index)`` — order- and process-insensitive, so a
    sequence draws identical randomness alone, in a full rank or sharded.
    """

    sensor_template: Any
    sensor_seed: int

    def __call__(self, seq_index: int) -> SequenceState:
        state = SequenceState(seq_index=seq_index)
        state.sensor = self.sensor_template.spawn(
            [self.sensor_seed, seq_index]
        )
        return state


def tracking_runner(
    *,
    sensor_template,
    sensor_seed: int,
    graph: StageGraph,
    retain_intermediates: bool = True,
) -> SequenceRunner:
    """A runner that spawns one sensor stream per evaluated sequence.

    Each sequence gets a clone of the calibrated template chip whose
    runtime noise streams are keyed by ``(sensor_seed, seq_index)`` —
    order-insensitive, so a sequence draws identical randomness alone, in
    a full rank or sharded.
    """
    return SequenceRunner(
        graph,
        SensorSpawnFactory(sensor_template, sensor_seed),
        retain_intermediates=retain_intermediates,
    )


def build_strategy_graph(
    *,
    strategy,
    segmenter,
    gaze_estimator,
    rng: np.random.Generator,
    use_gt_roi: bool = True,
) -> StageGraph:
    """The Fig. 12/15 strategy-evaluation dataflow as a stage graph.

    ``rng`` seeds the *per-sequence* strategy spawns: one draw derives a
    base seed and every sequence samples from its own
    ``strategy.spawn([base_seed, seq_index])`` stream (mirroring the
    sensor's spawn design).  Streams are keyed by sequence index, never
    by execution order, so a sequence's results are bitwise-identical
    alone, in a full rank or sharded.
    """
    strategy_seed = int(rng.integers(2**32))
    return StageGraph(
        [
            EventifyPairStage(),
            StrategySampleStage(strategy, strategy_seed, use_gt_roi=use_gt_roi),
            SegmentOrReuseStage(segmenter),
            GazeRegressStage(gaze_estimator),
        ]
    )


def strategy_runner(
    graph: StageGraph, retain_intermediates: bool = True
) -> SequenceRunner:
    """A runner for strategy graphs.

    Per-sequence strategy spawns (see :func:`build_strategy_graph`) make
    sequences independent, so both execution modes — in-process and
    sharded — are available and bitwise-equivalent.
    Pass ``retain_intermediates=False`` when only the per-frame scalars
    (gaze, stats) are consumed, e.g. ``evaluate_strategy``.
    """
    return SequenceRunner(graph, retain_intermediates=retain_intermediates)
