"""Fig. 14 — end-to-end tracking latency of the four designs at 120 FPS.

Paper numbers: BlissCam cuts tracking latency 1.4x over NPU-Full, mainly
by accelerating segmentation 7.7x (it runs on 10.8 % of the pixels);
latency is similar to S+NPU/NPU-ROI because exposure dominates all three;
the in-sensor stages shrink exposure by only ~1.8 %.
"""

from _helpers import bench_evaluate_spec, once
from repro.api import ExperimentSpec, Session
from repro.api.result import PaperComparison, Table
from repro.hardware import TimingModel, VARIANTS, WorkloadProfile
from repro.obs import Tracer, summarize
from repro.obs.cli import stage_table

FPS = 120.0


def run_fig14():
    # As in Fig. 13: headline latencies at the paper-scale workload
    # profile, with the CI pipeline's measured fractions (and the
    # engine's measured stage wall time, from the run's trace) reported
    # too.
    tracer = Tracer()
    with Session(trace=tracer) as session:
        run_result = session.run(
            ExperimentSpec.from_dict(bench_evaluate_spec(fps=FPS))
        )
    measured = WorkloadProfile(**run_result.workload_profile)
    profile = WorkloadProfile()
    timing = TimingModel()
    latencies = {v: timing.tracking_latency(v, profile, FPS) for v in VARIANTS}
    reduction = timing.exposure_reduction("BlissCam", profile, FPS)
    feasible = {v: timing.schedule_feasible(v, profile, FPS) for v in VARIANTS}
    measured_ratio = (
        timing.tracking_latency("NPU-Full", measured, FPS).total
        / timing.tracking_latency("BlissCam", measured, FPS).total
    )
    engine_stages = summarize(tracer.to_records())["stages"]
    return latencies, reduction, feasible, measured_ratio, engine_stages


def test_fig14_latency(benchmark):
    latencies, exposure_reduction, feasible, measured_ratio, engine_stages = (
        once(benchmark, run_fig14)
    )

    stages = sorted({k for lat in latencies.values() for k in lat.stages})
    table = Table(
        ["stage (ms)"] + list(VARIANTS),
        title="Fig. 14 — latency breakdown at 120 FPS",
    )
    for stage in stages:
        table.add_row(
            stage,
            *(
                round(latencies[v].stages.get(stage, 0.0) * 1e3, 3)
                for v in VARIANTS
            ),
        )
    table.add_row("TOTAL", *(round(latencies[v].total * 1e3, 2) for v in VARIANTS))
    table.add_row("sustains 120 FPS", *(str(feasible[v]) for v in VARIANTS))
    print()
    print(table.render())

    full = latencies["NPU-Full"].total
    bliss = latencies["BlissCam"].total
    seg_speedup = (
        latencies["NPU-Full"].stages["segmentation"]
        / latencies["BlissCam"].stages["segmentation"]
    )

    cmp = PaperComparison("Fig. 14 @ 120 FPS")
    cmp.add("latency reduction over NPU-Full (x)", 1.4, round(full / bliss, 2))
    cmp.add("segmentation speedup (x)", 7.7, round(seg_speedup, 1))
    cmp.add("NPU-Full latency (ms)", "~15", round(full * 1e3, 1))
    cmp.add("BlissCam seg time (ms)", 0.87, round(
        latencies["BlissCam"].stages["segmentation"] * 1e3, 2))
    cmp.add("exposure reduction (%)", 1.8, round(100 * exposure_reduction, 1))
    cmp.add(
        "reduction with CI-measured fractions (x)",
        "(smaller frame, bigger eye)",
        round(measured_ratio, 2),
    )
    print(cmp.render())

    # Modeled milliseconds above; measured engine wall-clock shares of
    # the same evaluation run below (its engine.stage spans).
    print()
    print(
        stage_table(
            engine_stages, title="measured engine wall-clock shares (same run)"
        ).render()
    )

    assert full / bliss > 1.2
    assert all(feasible.values())
    # Exposure dominates, so S+NPU / NPU-ROI / BlissCam are all close.
    assert (
        abs(latencies["S+NPU"].total - latencies["BlissCam"].total)
        < 0.1 * latencies["BlissCam"].total
    )
