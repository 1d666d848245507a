"""Algorithm-level system variants and the strategy evaluation harness.

Fig. 12 compares three pipeline variants (NPU-Full, NPU-ROI,
NPU-ROI-Sample) across segmentation backbones; Fig. 15 compares seven
sampling strategies under a common backbone.  Both reduce to the same
harness: *train a segmenter on frames sampled by strategy S, then measure
gaze error on held-out frames sampled by S*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gaze.estimation import FittedGazeEstimator
from repro.gaze.metrics import AngularErrorStats, angular_errors
from repro.sampling.eventification import eventify
from repro.sampling.strategies import SamplingStrategy
from repro.synth.dataset import SyntheticEyeDataset
from repro.training.loop import train_segmentation

__all__ = [
    "StrategyEvaluation",
    "make_strategy",
    "collect_sampled_dataset",
    "train_for_strategy",
    "evaluate_strategy",
]


@dataclass
class StrategyEvaluation:
    """Gaze accuracy of one (strategy, segmenter) pair."""

    strategy_name: str
    horizontal: AngularErrorStats
    vertical: AngularErrorStats
    mean_compression: float
    frames: int


def make_strategy(name: str, compression: float, dataset=None) -> SamplingStrategy:
    """Factory for the Fig. 15 strategy zoo by display name.

    ``ROIFixed`` needs dataset statistics; pass the training dataset.

    A compatibility shim over the :mod:`repro.api` strategy registry —
    the construction logic (including the ``ROI+Fixed`` mask fit) lives
    with the built-in registrations, so registered third-party
    strategies resolve here too.
    """
    # Lazy: core sits below the api layer; only this shim reaches up.
    import repro.api.builtin  # noqa: F401  (populates the registry)
    from repro.api.registry import STRATEGIES

    return STRATEGIES.get(name)(compression, dataset)


def _frame_decisions(
    strategy: SamplingStrategy,
    dataset: SyntheticEyeDataset,
    indices: list[int],
    rng: np.random.Generator,
    use_gt_roi: bool = True,
):
    """Yield (decision, frame, seg_target, gaze, seq_index, t) per frame pair."""
    for prev, cur, seg, gaze, gt_box, seq_index, t in dataset.frame_pairs(indices):
        event_map = eventify(prev, cur)
        roi_box = gt_box if use_gt_roi else None
        decision = strategy.sample(cur, event_map, roi_box, rng)
        yield decision, cur, seg, gaze, seq_index, t


def collect_sampled_dataset(
    strategy: SamplingStrategy,
    dataset: SyntheticEyeDataset,
    indices: list[int],
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Build (sparse_frame, mask, target) training samples under a strategy."""
    samples = []
    for decision, _cur, seg, _gaze, _si, _t in _frame_decisions(
        strategy, dataset, indices, rng
    ):
        if decision.reuse_previous:
            continue  # SKIP transmits nothing; no training sample
        samples.append((decision.sparse_frame, decision.mask, seg))
    return samples


def train_for_strategy(
    segmenter,
    strategy: SamplingStrategy,
    dataset: SyntheticEyeDataset,
    indices: list[int],
    epochs: int,
    rng: np.random.Generator,
    lr: float = 3e-3,
    batch_size: int = 4,
):
    """Train ``segmenter`` on frames sampled by ``strategy``.

    Executes on the training runtime
    (:func:`repro.training.runtime.run_segmentation_epochs` via
    :func:`train_segmentation`): each ``batch_size`` minibatch is one
    model rank, exactly as the historical loop ran it.

    Stochastic strategies draw a *fresh* mask every epoch — the same
    regime as the real sensor, whose SRAM RNG resamples each frame.  This
    is what makes random sampling trainable at high compression: the
    network sees many sparse views of each frame instead of one frozen
    mask.  Deterministic strategies (Full+DS, Skip, ROI+DS, ROI+Fixed)
    draw nothing from the RNG, so their samples are collected once and
    every epoch trains on that first pass.  For the stateless ones the
    re-collection was literally identical work; for Skip it also pins the
    adaptive gate to a fresh first pass instead of letting its running
    skip-rate leak across epoch re-collections and silently drift the
    training set (the same leaked-state bug the per-sequence ``spawn``
    design fixes on the evaluation side).
    """
    result = None
    samples = None
    for _ in range(max(1, epochs)):
        if samples is None or strategy.stochastic:
            samples = collect_sampled_dataset(strategy, dataset, indices, rng)
        if not samples:
            raise ValueError("strategy produced no training samples")
        epoch_result = train_segmentation(
            segmenter, samples, epochs=1, rng=rng, lr=lr,
            batch_size=batch_size,
        )
        if result is None:
            result = epoch_result
        else:
            result.epoch_losses.extend(epoch_result.epoch_losses)
    return result


def evaluate_strategy(
    strategy: SamplingStrategy,
    segmenter,
    dataset: SyntheticEyeDataset,
    eval_indices: list[int],
    rng: np.random.Generator,
    gaze_estimator: FittedGazeEstimator | None = None,
    batched: bool = False,
    batch_size: int | None = None,
    workers: int | None = None,
    executor=None,
    transport=None,
    use_gt_roi: bool = True,
) -> StrategyEvaluation:
    """Measure gaze error when the host sees ``strategy``-sampled frames.

    The gaze estimator is calibrated on the evaluation sequences' ground
    truth (per-user calibration); pass a pre-fit estimator to share it.

    Runs on the shared :mod:`repro.engine` stage runtime: eventify ->
    strategy sampling -> segment-or-reuse -> gaze regression, the same
    runner the end-to-end tracker uses.  Each sequence samples from its
    own ``strategy.spawn`` stream keyed by sequence index (derived from
    ``rng``), so all three execution modes — sequential, ``batched``
    lockstep, and sharded (``workers >= 2`` on ``executor`` and the
    ``transport`` channel, e.g. a ``repro.api.Session``'s) — produce
    bitwise-identical results; Fig. 15 sweeps can fan out freely.
    """
    from repro.engine import build_strategy_graph, strategy_runner

    if gaze_estimator is None:
        gaze_estimator = FittedGazeEstimator()
        segs = np.concatenate([dataset[i].segmentations for i in eval_indices])
        gazes = np.concatenate([dataset[i].gazes for i in eval_indices])
        gaze_estimator.fit(segs, gazes)

    graph = build_strategy_graph(
        strategy=strategy,
        segmenter=segmenter,
        gaze_estimator=gaze_estimator,
        rng=rng,
        use_gt_roi=use_gt_roi,
    )
    # The collector below only needs gaze + stats scalars; drop the
    # O(frame size) intermediates as the run streams (and keep sharded
    # worker->parent transfers scalar-sized).
    runner = strategy_runner(
        graph, batch_size=batch_size, retain_intermediates=False
    )
    run = runner.run(
        [(i, dataset[i]) for i in eval_indices],
        batched=batched,
        workers=workers,
        executor=executor,
        transport=transport,
    )

    preds, truths, compressions = [], [], []
    for ctx in run.evaluated:
        preds.append(ctx.gaze_pred)
        truths.append(ctx.gaze_true)
        if not ctx.seg_reused:
            compressions.append(min(ctx.stats["compression"], 1e6))

    horizontal, vertical = angular_errors(np.array(preds), np.array(truths))
    return StrategyEvaluation(
        strategy_name=strategy.name,
        horizontal=horizontal,
        vertical=vertical,
        mean_compression=float(np.mean(compressions)) if compressions else 1.0,
        frames=len(preds),
    )
