"""Ablation — joint training (Sec. III-C) vs training the stages apart.

The paper's pitch is that the sampling and tracking algorithms are
"(approximately) differentiable, which allows us to jointly train the
in-sensor and off-sensor operations to maximize end-to-end accuracy".
This bench runs the same architectures with (a) the full joint procedure
and (b) the ROI predictor cut off from the segmentation gradient, and
compares end-to-end gaze error and ROI quality.

Also sweeps the in-ROI sampling rate around the paper's ~20 % operating
point (Sec. VI-F territory).
"""

import numpy as np

from _helpers import bench_pipeline_config, bench_dataset, bench_vit, once
from repro.analysis import joint_vs_separate, sampling_rate_sweep
from repro.api.result import PaperComparison, Table

RATES = [0.05, 0.2, 0.6]


def run_ablation():
    comparison = joint_vs_separate(bench_pipeline_config(seed=9), seed=9)
    sweep = sampling_rate_sweep(
        bench_dataset(seed=13),
        segmenter_factory=lambda rng: bench_vit(int(rng.integers(0, 1 << 31))),
        rates=RATES,
        epochs=4,
        seed=13,
    )
    return comparison, sweep


def test_joint_training_ablation(benchmark):
    comparison, sweep = once(benchmark, run_ablation)

    table = Table(
        ["mode", "horz err (deg)", "vert err (deg)", "ROI IoU"],
        title="Ablation — joint vs separate training",
    )
    for mode, stats in comparison.items():
        table.add_row(
            mode,
            round(stats["horizontal"], 2),
            round(stats["vertical"], 2),
            round(stats["roi_iou"], 2),
        )
    print()
    print(table.render())

    table2 = Table(
        ["in-ROI rate", "compression (x)", "horz err", "vert err"],
        title="Ablation — in-ROI sampling-rate sweep (GT ROI)",
    )
    for row in sweep:
        table2.add_row(
            row["rate"],
            round(row["compression"], 1),
            round(row["horizontal"], 2),
            round(row["vertical"], 2),
        )
    print(table2.render())

    joint = comparison["joint"]
    separate = comparison["separate"]
    joint_err = joint["horizontal"] + joint["vertical"]
    separate_err = separate["horizontal"] + separate["vertical"]

    cmp = PaperComparison("joint-training ablation")
    cmp.add(
        "joint no worse than separate",
        "yes (joint maximizes end-to-end accuracy)",
        "yes" if joint_err <= separate_err * 1.25 else "no",
    )
    densest = sweep[-1]
    sparsest = sweep[0]
    cmp.add(
        "denser sampling helps accuracy",
        "yes (less compression, lower error)",
        "yes"
        if densest["horizontal"] + densest["vertical"]
        <= sparsest["horizontal"] + sparsest["vertical"] + 0.5
        else "no",
    )
    print(cmp.render())

    # Joint training must not lose to separate training (CI noise slack).
    assert joint_err <= separate_err * 1.25
    # The sweep's densest point must not be the worst one.
    errors = [row["horizontal"] + row["vertical"] for row in sweep]
    assert errors[-1] <= max(errors) + 1e-9
