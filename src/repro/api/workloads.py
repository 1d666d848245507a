"""The built-in workload kinds: every reachable experiment, by name.

Each workload is ``(session, spec) -> RunResult``; :data:`WORKLOADS`
at the foot of this module maps the spec string it answers to onto it.  Accuracy workloads run the shared
:mod:`repro.engine` stage runtime through the session's memoized
pipelines; with ``execution.workers >= 2`` every sharded workload
(evaluation, the strategy sweep, serving) fans out through one
:class:`~repro.engine.executors.Shards` handle over the session's pool
and transport channel (:func:`_sharding`).  Hardware workloads query
the calibrated energy/latency/area/power models; the ``serve`` workload
drives the :mod:`repro.serve` streaming runtime over a session-trained
tracker.
The offline workloads delegate to the imperative surface of
:mod:`repro.api.tracker` (``BlissCamPipeline.evaluate``,
``evaluate_strategy``), so their metrics are bitwise-identical to
calling it directly — the parity tests pin this.
"""

from __future__ import annotations

import copy
import zlib
from dataclasses import asdict

import numpy as np

from repro.api.result import RunResult, Table
from repro.api.session import Session, system_config
from repro.api.spec import ExperimentSpec
from repro.api.tracker import evaluate_strategy, train_for_strategy
from repro.engine.executors import Shards
from repro.hardware import (
    AreaModel,
    ProcessNodes,
    SystemEnergyModel,
    TimingModel,
    VARIANTS,
    WorkloadProfile,
)
from repro.hardware.power_budget import HeadsetBudget
from repro.obs.names import QUEUE_DEPTH_FIELDS, serve_queue_depth_gauge
from repro.obs.tracer import current_tracer
from repro.sampling.strategies import STRATEGIES, STRATEGY_NAMES

__all__ = ["WORKLOADS", "strategy_rng"]


def _split_indices(spec: ExperimentSpec, dataset):
    """Training/evaluation sequence indices: explicit or ``split()``."""
    train_idx, eval_idx = dataset.split()
    if spec.training.train_indices is not None:
        train_idx = list(spec.training.train_indices)
    if spec.execution.eval_indices is not None:
        eval_idx = list(spec.execution.eval_indices)
    return train_idx, eval_idx


def _sharding(session: Session, spec: ExperimentSpec) -> Shards | None:
    """The session's pool and shared-memory transport channel as one
    :class:`~repro.engine.executors.Shards` handle.  ``workers < 2``
    returns ``None`` — the serial reference path the sharded runs are
    pinned against."""
    workers = spec.execution.workers
    executor = session.executor(workers)
    if executor is None:
        return None
    return Shards(executor, session.transport(), workers)


def strategy_rng(base_seed: int, name: str) -> np.random.Generator:
    """The per-strategy RNG stream of the ``strategy_sweep`` workload.

    Keyed by (sweep seed, CRC32 of the strategy name): stable across
    processes and across sweep subsets, so evaluating one strategy draws
    the same stream as evaluating it inside the full zoo.
    """
    return np.random.default_rng([base_seed, zlib.crc32(name.encode())])


# -- accuracy workloads ------------------------------------------------------
def run_evaluate(session: Session, spec: ExperimentSpec) -> RunResult:
    """Train (memoized) + evaluate the end-to-end tracker."""
    pipeline = session.pipeline(spec)
    e = spec.execution
    result = pipeline.evaluate(
        list(e.eval_indices) if e.eval_indices is not None else None,
        reuse_window=spec.sensor.reuse_window,
        sensor_seed=spec.sensor.sensor_seed,
        shards=_sharding(session, spec),
    )
    metrics = {
        "frames": result.horizontal.count,
        "horizontal": asdict(result.horizontal),
        "vertical": asdict(result.vertical),
        "mean_compression": result.stats.mean_compression,
        "mean_roi_fraction": result.stats.mean_roi_fraction,
        "mean_sampled_fraction": result.stats.mean_sampled_fraction,
        "mean_valid_token_fraction": result.stats.mean_valid_token_fraction,
        "mean_roi_iou": result.stats.mean_roi_iou,
        "mean_transmitted_bytes": float(
            np.mean(result.stats.transmitted_bytes)
        ),
        "within_one_degree": result.within_one_degree,
    }
    train_result = pipeline.train_result
    if train_result is not None:
        # The joint-training trajectory (the CI training smoke asserts
        # it): which schedule ran (the *effective* config values — spec
        # nulls keep the preset's) and what the losses did, epoch by
        # epoch.  Memoized pipelines report the trajectory of the run
        # that trained them.
        metrics["training"] = {
            "batch_size": pipeline.config.joint.batch_size,
            "seg_losses": list(train_result.seg_losses),
            "roi_losses": list(train_result.roi_losses),
            "improved": train_result.improved,
        }
    table = Table(["metric", "value"], title="evaluation results")
    table.add_row("horizontal error (deg)", round(result.horizontal.mean, 2))
    table.add_row("vertical error (deg)", round(result.vertical.mean, 2))
    table.add_row("compression (x)", round(result.stats.mean_compression, 1))
    table.add_row("ROI IoU", round(result.stats.mean_roi_iou, 2))
    return RunResult(
        workload="evaluate",
        metrics=metrics,
        workload_profile=asdict(result.stats.to_profile()),
        tables=[table],
    )


def _sweep_key(spec: ExperimentSpec, train_idx, name: str) -> tuple:
    """The per-strategy training-cache key.

    Only training-relevant inputs key the cache: which other names are
    in the sweep (and the eval-only use_gt_roi flag) must not force a
    retrain — strategy_rng is name-keyed precisely so subsets and the
    full zoo share streams.
    """
    st = spec.strategy
    return (
        "strategy_training",
        spec.section_hash("dataset"),
        st.compression,
        st.train_epochs,
        st.seed,
        tuple(train_idx),
        name,
    )


def _train_strategy(config, dataset, st, name: str, train_idx):
    """Build and train one strategy's segmenter: ``(strategy, segmenter,
    rng)``, the RNG in its post-training state.

    The one training path of the sweep, in-process and in a pool
    worker.  Per-strategy RNG streams (:func:`strategy_rng`) are keyed
    by ``(seed, name)`` — process-independent — so both places train
    identical triples.
    """
    from repro.segmentation import ViTSegmenter

    rng = strategy_rng(st.seed, name)
    strategy = STRATEGIES[name](st.compression, dataset)
    segmenter = ViTSegmenter(config.vit, rng)
    train_for_strategy(
        segmenter, strategy, dataset, train_idx, st.train_epochs, rng
    )
    return strategy, segmenter, rng


def _evaluate_trained(trained, dataset, st, eval_idx, shards=None):
    """Evaluate a trained triple from :func:`_train_strategy`."""
    strategy, segmenter, rng = trained
    return evaluate_strategy(
        strategy,
        segmenter,
        dataset,
        eval_idx,
        # Deep-copy the post-training RNG state: the cached generator
        # stays pristine, so a cache-hit re-run replays bitwise.
        copy.deepcopy(rng),
        shards=shards,
        use_gt_roi=st.use_gt_roi,
    )


def _sweep_strategy_job(sweep: tuple, name: str):
    """Train + evaluate one strategy of a fanned-out sweep (worker side).

    The :meth:`~repro.engine.executors.Shards.map` job: ``sweep`` is
    ``(config, st, train_idx, eval_idx)``, shared by every strategy.
    Returns the trained triple *in its post-training RNG state* plus its
    evaluation, so the parent caches the triple exactly as the
    in-process path does.
    """
    from repro.synth import SyntheticEyeDataset

    config, st, train_idx, eval_idx = sweep
    dataset = SyntheticEyeDataset(config.dataset)
    trained = _train_strategy(config, dataset, st, name, train_idx)
    return trained, _evaluate_trained(trained, dataset, st, eval_idx)


def run_strategy_sweep(session: Session, spec: ExperimentSpec) -> RunResult:
    """Fig. 15: train a segmenter per sampling strategy, measure gaze error.

    With ``execution.workers >= 2`` the sweep fans out *across
    strategies* over the session pool: every uncached strategy trains
    and evaluates in its own worker process (per-strategy RNG streams
    are process-independent), bitwise-identical to the serial sweep —
    the parity tests pin this.  Cache hits always replay in-process.
    """
    from repro.synth import SyntheticEyeDataset

    st = spec.strategy
    config = system_config(spec)
    names = list(st.names) if st.names else list(STRATEGY_NAMES)

    def _dataset():
        return SyntheticEyeDataset(config.dataset)

    dataset = session.memo(
        ("dataset", spec.section_hash("dataset")), _dataset, training=False
    )
    train_idx, eval_idx = _split_indices(spec, dataset)
    shards = _sharding(session, spec)

    # Fan uncached strategies out across the pool; each worker returns
    # its trained triple plus the evaluation it already ran in-place.
    evaluations: dict[str, object] = {}
    if shards is not None:
        missing = [
            n for n in names if not session.cached(_sweep_key(spec, train_idx, n))
        ]
        results = shards.map(
            _sweep_strategy_job, (config, st, train_idx, eval_idx), missing
        )
        for n, (trained, evaluation) in zip(missing, results):
            session.memo(
                _sweep_key(spec, train_idx, n), lambda t=trained: t
            )
            evaluations[n] = evaluation

    per_strategy = {}
    table = Table(
        ["strategy", "horz err (deg)", "vert err (deg)", "compression"],
        title=f"strategy sweep @ {st.compression:g}x target",
    )
    for name in names:
        evaluation = evaluations.get(name)
        if evaluation is None:
            trained = session.memo(
                _sweep_key(spec, train_idx, name),
                lambda name=name: _train_strategy(
                    config, dataset, st, name, train_idx
                ),
            )
            evaluation = _evaluate_trained(
                trained, dataset, st, eval_idx, shards
            )
        per_strategy[name] = {
            "horizontal": asdict(evaluation.horizontal),
            "vertical": asdict(evaluation.vertical),
            "mean_compression": evaluation.mean_compression,
            "frames": evaluation.frames,
        }
        table.add_row(
            name,
            round(evaluation.horizontal.mean, 2),
            round(evaluation.vertical.mean, 2),
            round(evaluation.mean_compression, 1),
        )
    metrics = {
        "compression_target": st.compression,
        "strategies": per_strategy,
    }
    return RunResult(
        workload="strategy_sweep", metrics=metrics, tables=[table]
    )


def run_serve(session: Session, spec: ExperimentSpec) -> RunResult:
    """Streaming multi-client serving: the ``execution.serve`` scenario.

    Trains (memoized) the spec's tracker, then multiplexes
    ``serve.num_clients`` synthetic client eye-streams through it with
    cross-client micro-batching against a virtual clock, under the
    scenario's arrival process and SLO policy.  ``execution.workers >=
    2`` partitions the fleet into independent scheduler replicas over
    the session pool.  Telemetry (latency percentiles, goodput, drop
    rate, queue depths) is virtual-time, hence deterministic for a given
    spec + seed; the real loop's wall time lives in the trace
    (``serve.tick`` and ``session.run`` spans).
    """
    from repro.serve import ClientSensorFactory, simulate_serving

    pipeline = session.pipeline(spec)
    graph, template = pipeline.tracking_setup(
        reuse_window=spec.sensor.reuse_window,
        sensor_seed=spec.sensor.sensor_seed,
    )
    scenario = spec.execution.serve
    run = simulate_serving(
        graph=graph,
        state_factory=ClientSensorFactory(template, spec.sensor.sensor_seed),
        dataset_cfg=pipeline.config.dataset,
        scenario=scenario,
        shards=_sharding(session, spec),
    )
    telemetry = run.summary
    frames = telemetry["frames"]
    tracer = current_tracer()
    if tracer is not None:
        # The merged queue-depth summary as gauges, named through the
        # same table Telemetry.summary builds its block from — the
        # metrics block and the exported trace cannot drift.  (The
        # per-tick serve.queue_depth series itself is emitted by the
        # scheduler; sharded replicas' series merge in with their
        # results.)
        for field in QUEUE_DEPTH_FIELDS:
            value = telemetry["queue_depth"][field]
            if isinstance(value, (int, float)):
                tracer.gauge(serve_queue_depth_gauge(field), value)
    metrics = {
        "clients": scenario.num_clients,
        "arrival": scenario.arrival,
        "duration_ticks": scenario.duration_ticks,
        "deadline_policy": scenario.deadline_policy,
        "max_batch": scenario.max_batch,
        "replicas": run.workers,
        "telemetry": telemetry,
    }
    table = Table(["metric", "value"], title="serving scorecard")
    table.add_row("clients", scenario.num_clients)
    table.add_row("arrival process", scenario.arrival)
    table.add_row("frames arrived", frames["arrived"])
    table.add_row("frames completed", frames["completed"])
    table.add_row("frames dropped", frames["dropped"])
    table.add_row("drop rate", f"{telemetry['drop_rate']:.1%}")
    lat = telemetry["latency_ms"]
    for pct in ("p50", "p95", "p99"):
        value = lat[pct]
        table.add_row(
            f"latency {pct} (ms)",
            round(value, 3) if value is not None else "-",
        )
    table.add_row("goodput (fps)", round(telemetry["goodput_fps"], 1))
    table.add_row("max queue depth", telemetry["queue_depth"]["max"])
    return RunResult(workload="serve", metrics=metrics, tables=[table])


# -- hardware-model workloads ------------------------------------------------
def run_energy(session: Session, spec: ExperimentSpec) -> RunResult:
    """Fig. 13 operating point: per-frame energy of the four variants."""
    fps = spec.execution.fps
    model = SystemEnergyModel()
    profile = WorkloadProfile()
    table = Table(
        ["variant", "total (uJ/frame)", "saving vs NPU-Full"],
        title=f"energy @ {fps:g} FPS",
    )
    full = model.frame_energy("NPU-Full", profile, fps).total
    metrics = {"fps": fps, "variants": {}}
    for variant in VARIANTS:
        total = model.frame_energy(variant, profile, fps).total
        metrics["variants"][variant] = {
            "joules_per_frame": total,
            "saving_vs_npu_full": full / total,
        }
        table.add_row(variant, round(total * 1e6, 1), f"{full / total:.2f}x")
    return RunResult(
        workload="energy",
        metrics=metrics,
        workload_profile=asdict(profile),
        tables=[table],
    )


def run_latency(session: Session, spec: ExperimentSpec) -> RunResult:
    """Fig. 14 operating point: tracking latency of the four variants."""
    fps = spec.execution.fps
    timing = TimingModel()
    profile = WorkloadProfile()
    table = Table(
        ["variant", "latency (ms)", "sustains rate"],
        title=f"tracking latency @ {fps:g} FPS",
    )
    metrics = {"fps": fps, "variants": {}}
    for variant in VARIANTS:
        lat = timing.tracking_latency(variant, profile, fps)
        feasible = timing.schedule_feasible(variant, profile, fps)
        metrics["variants"][variant] = {
            "latency_s": lat.total,
            "sustains_rate": feasible,
        }
        table.add_row(variant, round(lat.total * 1e3, 2), str(feasible))
    return RunResult(
        workload="latency",
        metrics=metrics,
        workload_profile=asdict(profile),
        tables=[table],
    )


def run_area(session: Session, spec: ExperimentSpec) -> RunResult:
    """Sec. VI-D: area estimate of the paper's 640x400 sensor."""
    report = AreaModel().estimate(400, 640)
    metrics = {
        "pixel_array_mm2": report.pixel_array_mm2,
        "in_sensor_npu_mm2": report.in_sensor_npu_mm2,
        "output_buffer_mm2": report.output_buffer_mm2,
        "total_mm2": report.total_mm2,
    }
    table = Table(["component", "mm^2"], title="area (640x400, 5 um pitch)")
    table.add_row("pixel array", round(report.pixel_array_mm2, 2))
    table.add_row("in-sensor NPU", report.in_sensor_npu_mm2)
    table.add_row("output buffer + RLE", report.output_buffer_mm2)
    table.add_row("TOTAL", round(report.total_mm2, 2))
    return RunResult(workload="area", metrics=metrics, tables=[table])


def run_power(session: Session, spec: ExperimentSpec) -> RunResult:
    """Headset power budget of the four variants."""
    fps = spec.execution.fps
    budget = HeadsetBudget()
    table = Table(
        ["variant", "power (mW, 2 eyes)", "budget share"],
        title=f"headset budget @ {fps:g} FPS",
    )
    metrics = {"fps": fps, "variants": {}}
    for variant in VARIANTS:
        report = budget.report(variant, fps)
        metrics["variants"][variant] = {
            "power_w": report.power_w,
            "budget_fraction": report.budget_fraction,
        }
        table.add_row(
            variant,
            round(report.power_w * 1e3, 1),
            f"{report.budget_fraction:.1%}",
        )
    return RunResult(workload="power", metrics=metrics, tables=[table])


#: The Fig. 16 operating points.
FPS_SWEEP_DEFAULT = (30.0, 60.0, 120.0, 240.0, 500.0)


def run_fps_sweep(session: Session, spec: ExperimentSpec) -> RunResult:
    """Fig. 16: BlissCam's energy saving vs frame rate."""
    model = SystemEnergyModel()
    profile = WorkloadProfile()
    points = spec.execution.fps_sweep_points or FPS_SWEEP_DEFAULT
    table = Table(["FPS", "BlissCam saving"], title="saving vs frame rate")
    savings = {}
    for fps in points:
        saving = model.savings_over("NPU-Full", "BlissCam", profile, fps)
        savings[f"{fps:g}"] = saving
        table.add_row(f"{fps:g}", f"{saving:.2f}x")
    return RunResult(
        workload="fps_sweep",
        metrics={"savings_by_fps": savings},
        tables=[table],
    )


def run_node_sweep(session: Session, spec: ExperimentSpec) -> RunResult:
    """Fig. 17: BlissCam's energy saving vs process nodes."""
    fps = spec.execution.fps
    profile = WorkloadProfile()
    table = Table(
        ["logic node", "7 nm SoC", "22 nm SoC"], title="saving vs process node"
    )
    savings = {}
    for logic in (16, 22, 40, 65):
        row = {}
        for soc in (7, 22):
            model = SystemEnergyModel(
                ProcessNodes(sensor_logic_nm=logic, host_nm=soc)
            )
            row[f"soc_{soc}nm"] = model.savings_over(
                "NPU-Full", "BlissCam", profile, fps
            )
        savings[f"{logic}nm"] = row
        table.add_row(
            f"{logic} nm",
            f"{row['soc_7nm']:.2f}x",
            f"{row['soc_22nm']:.2f}x",
        )
    return RunResult(
        workload="node_sweep",
        metrics={"fps": fps, "savings_by_node": savings},
        tables=[table],
    )


#: Every workload kind by its spec name (``ExperimentSpec.workload``).
WORKLOADS = {
    "evaluate": run_evaluate,
    "strategy_sweep": run_strategy_sweep,
    "serve": run_serve,
    "energy": run_energy,
    "latency": run_latency,
    "area": run_area,
    "power": run_power,
    "fps_sweep": run_fps_sweep,
    "node_sweep": run_node_sweep,
}
