"""Extension — temporal gaze filtering on top of the BlissCam pipeline.

Not a paper figure: the paper's gaze stage is memoryless.  This bench
quantifies the obvious production extension — a constant-velocity Kalman
filter with a saccade gate over the per-frame gaze estimates — on the
same synthetic evaluation sequences.  Fixation jitter drops while
saccade tracking stays responsive.
"""

import numpy as np

from _helpers import bench_pipeline_config, once
from repro.api.result import Table
from repro.api.tracker import BlissCamPipeline
from repro.gaze import KalmanGazeFilter
from repro.gaze.metrics import angular_errors


def run_extension():
    pipeline = BlissCamPipeline(bench_pipeline_config(seed=21))
    pipeline.train()
    result = pipeline.evaluate()
    filt = KalmanGazeFilter(fps=pipeline.config.dataset.fps)
    filtered = filt.filter_sequence(result.predictions)
    raw_h, raw_v = angular_errors(result.predictions, result.truths)
    f_h, f_v = angular_errors(filtered, result.truths)
    return (raw_h, raw_v), (f_h, f_v)


def test_ext_gaze_filtering(benchmark):
    (raw_h, raw_v), (f_h, f_v) = once(benchmark, run_extension)

    table = Table(
        ["pipeline", "horz err (deg)", "vert err (deg)", "horz std", "vert std"],
        title="Extension — Kalman-filtered gaze vs raw per-frame estimates",
    )
    table.add_row(
        "raw (paper's memoryless)",
        round(raw_h.mean, 2), round(raw_v.mean, 2),
        round(raw_h.std, 2), round(raw_v.std, 2),
    )
    table.add_row(
        "Kalman + saccade gate",
        round(f_h.mean, 2), round(f_v.mean, 2),
        round(f_h.std, 2), round(f_v.std, 2),
    )
    print()
    print(table.render())

    raw_total = raw_h.mean + raw_v.mean
    filt_total = f_h.mean + f_v.mean
    print(f"combined error: raw {raw_total:.2f} deg -> filtered {filt_total:.2f} deg")

    # Filtering must not make tracking meaningfully worse; with jittery
    # CI-scale estimates it typically helps.
    assert filt_total <= raw_total * 1.15
