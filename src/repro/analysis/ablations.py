"""Ablation studies of BlissCam's design choices (DESIGN.md §4 extras).

Each function is a self-contained experiment runner returning plain
records, shared between the ablation benchmarks and interactive use:

* :func:`sigma_sensitivity` — the eventification threshold (the paper
  fixes sigma = 15/255 "empirically"; this sweep shows the trade-off it
  sits on: low sigma fires on shot noise, high sigma misses slow motion);
* :func:`normalization_ablation` — plain |dF| thresholding vs the
  event-camera normalized dF/F (Sec. VII: normalization complicates the
  analog hardware without accuracy benefit for eye tracking);
* :func:`joint_vs_separate` — the Sec. III-C joint training vs training
  the ROI predictor and segmenter in isolation;
* :func:`sampling_rate_sweep` — accuracy vs in-ROI sampling rate (the
  knob behind the paper's 20 % operating point).

The experiments that run the live system (:func:`joint_vs_separate`,
:func:`sampling_rate_sweep`) are thin configurations over the shared
:mod:`repro.engine` stage runtime — the same graphs the CLI and figure
benchmarks execute.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.api.tracker import (
    BlissCamPipeline,
    SystemConfig,
    evaluate_strategy,
    train_for_strategy,
)
from repro.sampling.eventification import (
    event_precision,
    event_recall,
    eventify,
    eventify_normalized,
)
from repro.sampling.strategies import ROIRandom
from repro.segmentation.vit import ViTSegmenter
from repro.synth.dataset import SyntheticEyeDataset
from repro.synth.eye_model import SEG_CLASSES

__all__ = [
    "sigma_sensitivity",
    "normalization_ablation",
    "joint_vs_separate",
    "sampling_rate_sweep",
]


def _foreground_union(seq, t: int) -> np.ndarray:
    """Union of foregrounds at t-1 and t — the region events may honestly cover."""
    prev_fg = seq.segmentations[t - 1] != SEG_CLASSES["background"]
    cur_fg = seq.segmentations[t] != SEG_CLASSES["background"]
    return prev_fg | cur_fg


def sigma_sensitivity(
    dataset: SyntheticEyeDataset, sigmas: list[float]
) -> list[dict]:
    """Event density / box recall / precision per threshold, dataset-wide."""
    rows = []
    for sigma in sigmas:
        densities, recalls, precisions = [], [], []
        for seq in dataset:
            for t in range(1, len(seq)):
                events = eventify(seq.frames[t - 1], seq.frames[t], sigma=sigma)
                fg = _foreground_union(seq, t)
                densities.append(events.mean())
                recalls.append(event_recall(events, fg))
                precisions.append(event_precision(events, fg))
        rows.append(
            {
                "sigma": sigma,
                "density": float(np.mean(densities)),
                "recall": float(np.mean(recalls)),
                "precision": float(np.mean(precisions)),
            }
        )
    return rows


def normalization_ablation(dataset: SyntheticEyeDataset) -> dict[str, dict]:
    """Plain vs normalized eventification at their nominal thresholds."""
    results = {}
    for name, fn in (
        ("plain |dF| > sigma (ours)", lambda a, b: eventify(a, b)),
        ("normalized dF/F (event camera)", lambda a, b: eventify_normalized(a, b)),
    ):
        recalls, precisions, densities = [], [], []
        for seq in dataset:
            for t in range(1, len(seq)):
                events = fn(seq.frames[t - 1], seq.frames[t])
                fg = _foreground_union(seq, t)
                recalls.append(event_recall(events, fg))
                precisions.append(event_precision(events, fg))
                densities.append(events.mean())
        results[name] = {
            "recall": float(np.mean(recalls)),
            "precision": float(np.mean(precisions)),
            "density": float(np.mean(densities)),
        }
    return results


def joint_vs_separate(
    config: SystemConfig, seed: int = 0
) -> dict[str, dict[str, float]]:
    """Compare Sec. III-C joint training against isolated training.

    *Joint*: the full pipeline (segmentation gradients flow into the ROI
    predictor through the soft-sampling relaxation).
    *Separate*: the same architectures, but the ROI predictor sees only
    its MSE loss (``seg_to_roi_weight = 0``) and the segmenter trains on
    ground-truth-ROI samples.
    """
    out = {}
    for mode in ("joint", "separate"):
        rng = np.random.default_rng(seed)
        if mode == "joint":
            pipeline = BlissCamPipeline(config, rng=rng)
        else:
            sep_config = replace(
                config, joint=replace(config.joint, seg_to_roi_weight=0.0)
            )
            pipeline = BlissCamPipeline(sep_config, rng=rng)
        pipeline.train()
        result = pipeline.evaluate()
        out[mode] = {
            "horizontal": result.horizontal.mean,
            "vertical": result.vertical.mean,
            "roi_iou": result.stats.mean_roi_iou,
        }
    return out


def sampling_rate_sweep(
    dataset: SyntheticEyeDataset,
    segmenter_factory,
    rates: list[float],
    epochs: int,
    seed: int = 0,
) -> list[dict]:
    """Gaze error vs in-ROI sampling rate with ground-truth ROIs.

    ``segmenter_factory(rng)`` builds a fresh segmenter per point.  The
    rate is converted to the strategy's frame-level compression using the
    dataset's typical ROI fraction.  Each point is one strategy-graph run
    on the shared :mod:`repro.engine` runtime (via
    :func:`~repro.api.tracker.evaluate_strategy`).
    """
    train_idx, eval_idx = dataset.split()
    roi_fraction = dataset.typical_roi_fraction(0)
    if roi_fraction is None:
        raise ValueError("dataset's first sequence has no foreground boxes")
    rows = []
    for rate in rates:
        rng = np.random.default_rng([seed, int(rate * 1e6)])
        compression = max(1.0, 1.0 / (rate * roi_fraction))
        segmenter: ViTSegmenter = segmenter_factory(rng)
        strategy = ROIRandom(compression)
        train_for_strategy(segmenter, strategy, dataset, train_idx, epochs, rng)
        result = evaluate_strategy(strategy, segmenter, dataset, eval_idx, rng)
        rows.append(
            {
                "rate": rate,
                "compression": compression,
                "horizontal": result.horizontal.mean,
                "vertical": result.vertical.mean,
            }
        )
    return rows
