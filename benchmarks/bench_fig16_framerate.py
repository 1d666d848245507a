"""Fig. 16 — sensitivity of gaze error and energy saving to frame rate.

Paper claims: from 30 to 500 FPS (1) gaze error grows only slightly
(+0.03 deg — shorter exposure, lower SNR via photon shot noise) and stays
tolerable; (2) the energy saving over NPU-Full grows from 3.6x to 6.7x
because shorter exposures shrink the analog frame buffer's retention
energy.  The abstract's "up to 8.2x" headline is the top of this design
space.

The error side isolates the paper's mechanism: the *same* gaze dynamics
are rendered under the exposure time each frame rate allows, so only the
photon shot noise changes between columns.  The energy side queries the
calibrated model with measured workload fractions.
"""

from dataclasses import replace

from _helpers import bench_pipeline_config, once
from repro.api.result import PaperComparison, Table
from repro.api.tracker import BlissCamPipeline
from repro.hardware import SystemEnergyModel, WorkloadProfile
from repro.synth import exposure_for_fps

FRAME_RATES = [30.0, 120.0, 500.0]


def run_fig16():
    from repro.synth import SyntheticEyeDataset

    model = SystemEnergyModel()
    # One pipeline trained at the nominal operating point; each frame rate
    # is then evaluated on the *same* gaze traces re-rendered under the
    # exposure that rate allows — so the error column isolates the photon
    # shot-noise mechanism the paper describes, without retraining noise.
    base_config = bench_pipeline_config(fps=120.0, seed=3)
    pipeline = BlissCamPipeline(base_config)
    pipeline.train()
    # Workload fractions are pinned at the nominal 120 FPS measurement so
    # the saving column isolates the paper's mechanism (analog-memory
    # retention shrinking with exposure) rather than the ROI predictor's
    # response to noisier frames (the error column captures that).
    nominal_eval = pipeline.evaluate()
    profile = nominal_eval.stats.to_profile(WorkloadProfile())
    rows = []
    for fps in FRAME_RATES:
        dataset_cfg = replace(
            base_config.dataset, exposure_s=exposure_for_fps(fps)
        )
        pipeline.dataset = SyntheticEyeDataset(dataset_cfg)
        evaluation = pipeline.evaluate()
        saving = model.savings_over("NPU-Full", "BlissCam", profile, fps)
        rows.append(
            {
                "fps": fps,
                "horizontal": evaluation.horizontal.mean,
                "vertical": evaluation.vertical.mean,
                "saving": saving,
            }
        )
    return rows


def test_fig16_framerate(benchmark):
    rows = once(benchmark, run_fig16)

    table = Table(
        ["FPS", "horz err (deg)", "vert err (deg)", "energy saving (x)"],
        title="Fig. 16 — error and energy saving vs frame rate",
    )
    for row in rows:
        table.add_row(
            int(row["fps"]),
            round(row["horizontal"], 2),
            round(row["vertical"], 2),
            round(row["saving"], 2),
        )
    print()
    print(table.render())

    savings = [row["saving"] for row in rows]
    err_change = (rows[-1]["horizontal"] + rows[-1]["vertical"]) - (
        rows[0]["horizontal"] + rows[0]["vertical"]
    )

    cmp = PaperComparison("Fig. 16")
    cmp.add("saving @30 FPS (x)", 3.6, round(savings[0], 2))
    cmp.add("saving @120 FPS (x)", 4.0, round(savings[1], 2))
    cmp.add("saving @500 FPS (x)", 6.7, round(savings[2], 2))
    cmp.add("saving monotone in FPS", "yes",
            "yes" if savings == sorted(savings) else "no")
    cmp.add("error drift 30->500 FPS (deg)", "+0.03", round(err_change, 2))
    print(cmp.render())

    assert savings == sorted(savings)
    assert savings[-1] - savings[0] > 0.8  # the saving spread is material
    assert savings[-1] > 4.0
    # SNR mechanism: with the same trained tracker and the same gaze
    # traces, shorter exposures (noisier frames) must not *improve*
    # accuracy beyond sampling noise, and the degradation stays bounded
    # (the paper sees +0.03 deg at its scale).
    assert err_change > -2.0
    assert err_change < 8.0
