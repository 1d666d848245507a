"""Fig. 12 — end-to-end gaze error vs. compression rate.

The paper's headline accuracy result: the jointly-designed pipeline
(NPU-ROI-Sample: ROI prediction + in-ROI random sampling + sparse ViT)
keeps both angular errors low across compression rates, while dense CNN
baselines (RITnet, EdGaze) degrade as their inputs are downsampled.

Reproduced live: every (variant, compression) point trains a small
segmenter on the synthetic dataset and evaluates gaze error on held-out
sequences.  Absolute errors differ from the paper (tiny models, synthetic
data); the reproduced claim is the *ordering* — ours stays accurate and
flat where the CNN baselines blow up.
"""

import zlib

import numpy as np

from _helpers import BENCH_EPOCHS, bench_dataset, bench_vit, once
from repro.api import STRATEGIES
from repro.api.result import PaperComparison, Table
from repro.api.tracker import evaluate_strategy, train_for_strategy
from repro.segmentation import EdGazeNet, RITNet

COMPRESSIONS = [2.0, 8.0, 20.0]

#: (display name, segmenter factory, sampling strategy name)
VARIANTS = [
    ("RITnet (Full+DS)", lambda rng: RITNet(rng, base_channels=4), "Full+DS"),
    ("EdGaze (Full+DS)", lambda rng: EdGazeNet(rng, base_channels=4), "Full+DS"),
    ("NPU-Full (ViT, Full+DS)", lambda rng: bench_vit(2), "Full+DS"),
    ("NPU-ROI (ViT, ROI+DS)", lambda rng: bench_vit(3), "ROI+DS"),
    ("NPU-ROI-Sample (ours)", lambda rng: bench_vit(4), "Ours (ROI+Random)"),
]


def run_fig12():
    dataset = bench_dataset()
    train_idx, eval_idx = dataset.split()
    results = {}
    for name, factory, strategy_name in VARIANTS:
        errors = []
        for compression in COMPRESSIONS:
            rng = np.random.default_rng(zlib.crc32(f"{name}|{compression}".encode()))
            segmenter = factory(rng)
            strategy = STRATEGIES[strategy_name](compression, dataset)
            train_for_strategy(
                segmenter, strategy, dataset, train_idx, BENCH_EPOCHS, rng
            )
            evaluation = evaluate_strategy(
                strategy, segmenter, dataset, eval_idx, rng
            )
            errors.append(evaluation)
        results[name] = errors
    return results


def test_fig12_accuracy_vs_compression(benchmark):
    results = once(benchmark, run_fig12)

    for axis in ("vertical", "horizontal"):
        table = Table(
            ["variant"] + [f"{c:g}x" for c in COMPRESSIONS],
            title=f"Fig. 12 — {axis} angular error (deg, mean +/- std)",
        )
        for name, evals in results.items():
            cells = [
                f"{getattr(e, axis).mean:.2f}+/-{getattr(e, axis).std:.2f}"
                for e in evals
            ]
            table.add_row(name, *cells)
        print()
        print(table.render())

    ours = results["NPU-ROI-Sample (ours)"][-1]
    rit = results["RITnet (Full+DS)"][-1]
    edg = results["EdGaze (Full+DS)"][-1]
    ours_err = ours.horizontal.mean + ours.vertical.mean
    rit_err = rit.horizontal.mean + rit.vertical.mean
    edg_err = edg.horizontal.mean + edg.vertical.mean

    cmp = PaperComparison("Fig. 12 @ ~20x compression")
    cmp.add("ours vertical err (deg)", 0.8, round(ours.vertical.mean, 2))
    cmp.add("ours horizontal err (deg)", 0.7, round(ours.horizontal.mean, 2))
    cmp.add(
        "ours beats CNN baselines",
        "yes",
        "yes" if ours_err <= min(rit_err, edg_err) * 1.1 else "no",
    )
    cmp.add(
        "ours std < baselines' std (robustness)",
        "yes",
        "yes"
        if ours.horizontal.std <= max(rit.horizontal.std, edg.horizontal.std)
        else "no",
    )
    print(cmp.render())

    # Ordering claim: at the highest compression, the co-designed sparse
    # pipeline is no worse than the dense CNN baselines.
    assert ours_err <= min(rit_err, edg_err) * 1.1
