"""Bitwise parity of the batched strategy-graph kernels (Fig. 15 harness).

The strategy graph's stages (eventify-pair, strategy-sample,
segment-or-reuse, gaze-regress) each have one ``process_batch`` kernel;
this module pins full rank == each sequence alone (width 1) == sharded
for **every** registered strategy — including the stochastic ones
(Full+Random, ROI+Learned tie-breaks, ROI+Random) and the stateful SKIP
gate — and for all three segmentation backends.
"""

import numpy as np
import pytest

from repro.api import STRATEGIES
from repro.api.tracker import evaluate_strategy
from repro.engine import SequenceRunner, build_strategy_graph
from repro.engine.stage import Stage
from repro.engine.stages import (
    EventifyPairStage,
    GazeRegressStage,
    SegmentOrReuseStage,
    StrategySampleStage,
)
from repro.gaze.estimation import FittedGazeEstimator
from repro.sampling.strategies import STRATEGY_NAMES
from repro.segmentation.edgaze import EdGazeNet
from repro.segmentation.ritnet import RITNet
from repro.segmentation.vit import ViTConfig, ViTSegmenter
from repro.synth.dataset import DatasetConfig, SyntheticEyeDataset

COMPRESSION = 4.0
EVAL_IDX = [0, 1, 2, 3]


@pytest.fixture(scope="module")
def dataset():
    return SyntheticEyeDataset(
        DatasetConfig(
            height=32, width=32, frames_per_sequence=6, num_sequences=4,
            eye_scale=0.8,
        )
    )


@pytest.fixture(scope="module")
def vit():
    return ViTSegmenter(
        ViTConfig(height=32, width=32, patch=8, dim=24, heads=3,
                  depth=1, decoder_depth=1),
        np.random.default_rng(0),
    )


def _run(strategy_name, dataset, segmenter, **kwargs):
    strategy = STRATEGIES[strategy_name](COMPRESSION, dataset=dataset)
    rng = np.random.default_rng(int(np.random.default_rng(7).integers(2**32)))
    return evaluate_strategy(
        strategy, segmenter, dataset, EVAL_IDX, rng, **kwargs
    )


def _full_and_alone(strategy_name, dataset, segmenter, full_rank_and_alone):
    """Per-frame signatures of the strategy graph over ``EVAL_IDX`` as one
    rank and with each sequence run alone, from identical seeds."""
    estimator = FittedGazeEstimator()
    estimator.fit(
        np.concatenate([dataset[i].segmentations for i in EVAL_IDX]),
        np.concatenate([dataset[i].gazes for i in EVAL_IDX]),
    )
    graph = build_strategy_graph(
        strategy=STRATEGIES[strategy_name](COMPRESSION, dataset=dataset),
        segmenter=segmenter,
        gaze_estimator=estimator,
        rng=np.random.default_rng(7),
    )
    return full_rank_and_alone(
        SequenceRunner(graph), [(i, dataset[i]) for i in EVAL_IDX]
    )


def _assert_same(a, b, label):
    assert a.horizontal == b.horizontal, label
    assert a.vertical == b.vertical, label
    assert a.mean_compression == b.mean_compression, label
    assert a.frames == b.frames, label


class TestBatchedStagesRegistered:
    def test_strategy_stages_override_process_batch(self):
        """Every strategy-graph stage implements the one stage kernel."""
        for stage_cls in (
            EventifyPairStage,
            StrategySampleStage,
            SegmentOrReuseStage,
            GazeRegressStage,
        ):
            assert stage_cls.process_batch is not Stage.process_batch


class TestStrategyGraphParity:
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_batched_and_sharded_equal_sequential(
        self, name, dataset, vit, sharding, full_rank_and_alone
    ):
        """full rank == each sequence alone == sharded, bitwise, per
        strategy."""
        full, alone = _full_and_alone(name, dataset, vit, full_rank_and_alone)
        assert full == alone, name
        _assert_same(
            _run(name, dataset, vit),
            _run(name, dataset, vit, shards=sharding),
            name,
        )


class TestDenseBackendParity:
    @pytest.mark.parametrize("net_cls", [EdGazeNet, RITNet])
    def test_dense_backend_batched_equals_sequential(
        self, net_cls, dataset, full_rank_and_alone
    ):
        """Eval-mode conv backends ride predict_batch through the
        segment-or-reuse stage; SKIP exercises the reuse/compute split."""
        net = net_cls(np.random.default_rng(3), base_channels=4).eval()
        for name in ("Skip", "Ours (ROI+Random)"):
            full, alone = _full_and_alone(
                name, dataset, net, full_rank_and_alone
            )
            assert full == alone, name

    @pytest.mark.parametrize("net_cls", [EdGazeNet, RITNet])
    def test_training_mode_falls_back_per_row(
        self, net_cls, dataset, full_rank_and_alone
    ):
        """A net still in training mode must not be batch-stacked (batch
        norm would couple rows) — the stage runs its rows as width-1
        ranks, keeping the full rank bitwise-equal to each sequence
        alone even then."""
        net = net_cls(np.random.default_rng(3), base_channels=4)
        assert net.training  # fresh nets start in training mode
        full, alone = _full_and_alone(
            "Ours (ROI+Random)", dataset, net, full_rank_and_alone
        )
        assert full == alone, net_cls.__name__
