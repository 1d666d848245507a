"""Engine throughput: each sequence alone vs one rank vs sharded.

Not a paper figure — this benchmark seeds the performance trajectory of
the staged execution engine (``repro.engine``).  It trains the tracker
of an ``evaluate`` spec once through a ``repro.api`` session (memoized)
and evaluates the same held-out sequences with
``BlissCamPipeline.evaluate`` three ways:

* ``sequential`` — each sequence evaluated alone, one call per sequence
  (ranks of width 1, the reference the engine's width invariance is
  pinned against);
* ``batched`` — one call, one vectorized lockstep rank of every
  sequence (what every in-process run does);
* ``sharded`` — a 2-worker ``Shards`` handle: one shard per worker,
  each one rank of its own sequences, on the session's persistent pool
  with payloads (per sequence: frames, gazes, ROI boxes) on its
  shared-memory transport channel, the only way anything shards.

Each mode is timed untraced (a tracer would make every sharded job
capture and ship its spans home), best of ``REPEATS`` after one warm-up
call, which also forks the pool so the sharded time measures
steady-state dispatch, not the first fork.  One traced run per mode
afterwards gives that mode's per-stage wall-clock attribution from its
``engine.stage`` spans (the measured counterpart of the Figs. 13/14
breakdowns), and the sharded one what the engine executed from its
``engine.run`` span.  The bench checks the three modes' per-frame
predictions and workload statistics are bitwise identical and prints
frames/sec plus the per-stage tables.

Appends to ``BENCH_engine.json`` at the repository root (a git-stamped
``trajectory`` entry) so successive PRs accumulate the perf history.
"""

from __future__ import annotations

import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from _helpers import (
    BENCH_EPOCHS,
    BENCH_EYE_SCALE,
    host_fingerprint,
    once,
    record_bench,
    same_host_baseline,
)
from repro.api import ExperimentSpec, Session
from repro.api.result import Table
from repro.api.tracker import WorkloadStats
from repro.engine import Shards
from repro.obs import Tracer, install_tracer, summarize
from repro.obs.cli import stage_table

#: Wide evaluation rank: lockstep batching pays off when many sequences
#: run together (production batch serving), so the bench evaluates 30.
SEQUENCES = 32
FRAMES = 12
TRAIN_INDICES = [0, 1]
EVAL_INDICES = list(range(2, SEQUENCES))

#: The acceptance bar for the batched mode at CI scale.  Both modes run
#: the same stage kernels (sequential = ranks of width 1), so this is the
#: gain from rank width alone; it was 1.5 while the sequential mode ran
#: separate per-frame kernels with a slower token-level RLE readout.
TARGET_SPEEDUP = 1.3
#: The width ratio no longer bounds the batched mode by itself (its
#: baseline got faster), so batched seconds are also gated against the
#: newest ``BENCH_engine.json`` entry recorded on the same host: at most
#: this much slower.  Ten runs of unchanged code on a 2-vCPU x86 VM
#: spread 0.39-0.50 s (max/min 1.29) on a quiet host.
BATCHED_REGRESSION_BOUND = 0.35
#: Worker processes for the sharded mode.  Bitwise identity to each
#: sequence evaluated alone is always enforced.
WORKERS = 2
#: Timed runs per mode; the fastest counts.
REPEATS = 3

_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_engine.json"

#: The bench as a declarative spec.  Dynamics/eye-scale/epochs match the
#: historical ``bench_pipeline_config`` by construction: the "lively"
#: spec preset *is* ``BENCH_DYNAMICS`` (same object) and the epochs come
#: from ``BENCH_EPOCHS``.
BENCH_SPEC = {
    "workload": "evaluate",
    "dataset": {
        "num_sequences": SEQUENCES,
        "frames_per_sequence": FRAMES,
        "seed": 11,
        "eye_scale": BENCH_EYE_SCALE,
        "dynamics": "lively",
    },
    "training": {"train_indices": TRAIN_INDICES, "epochs": BENCH_EPOCHS},
    "execution": {"eval_indices": EVAL_INDICES},
}

MODES = ("sequential", "batched", "sharded")


def _outputs(results) -> tuple:
    """The per-frame predictions and workload statistics of one or more
    evaluations, concatenated in sequence-major order."""
    stats = {
        f.name: [v for r in results for v in getattr(r.stats, f.name)]
        for f in fields(WorkloadStats)
    }
    return np.concatenate([r.predictions for r in results]).tobytes(), stats


def _best_run(evaluate):
    """``(seconds, outputs)`` of the fastest of ``REPEATS`` calls."""
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()  # repro: allow[REP102] benchmark timing harness
        results = evaluate(EVAL_INDICES)
        elapsed = time.perf_counter() - start  # repro: allow[REP102] benchmark timing harness
        runs.append((elapsed, results))
    seconds, results = min(runs, key=lambda run: run[0])
    return seconds, _outputs(results)


def run_engine_throughput() -> tuple[dict, dict]:
    """The trajectory record and each mode's per-stage roll-up."""
    spec = ExperimentSpec.from_dict(BENCH_SPEC)
    best = {}
    with Session() as session:
        pipeline = session.pipeline(spec)
        shards = Shards(
            session.executor(WORKERS), session.transport(), WORKERS
        )
        # Each returns a list of EvaluationResults.
        evaluate = {
            "sequential": lambda idx: [pipeline.evaluate([i]) for i in idx],
            "batched": lambda idx: [pipeline.evaluate(idx)],
            "sharded": lambda idx: [pipeline.evaluate(idx, shards=shards)],
        }
        for mode in MODES:
            # Warm the sensor template and (for the sharded mode) the
            # pool's workers.
            evaluate[mode](EVAL_INDICES[:2])
            best[mode] = _best_run(evaluate[mode])
        # One traced run per mode: its engine.stage spans attribute
        # wall time per stage, and the sharded run's engine.run span
        # records what actually executed (the runner clamps workers to
        # the sequence count).
        tracers = {mode: Tracer() for mode in MODES}
        for mode, tracer in tracers.items():
            with install_tracer(tracer):
                evaluate[mode](EVAL_INDICES)
    stages = {
        mode: summarize(tracer.to_records())["stages"]
        for mode, tracer in tracers.items()
    }
    shard_attrs = next(
        s.attrs for s in tracers["sharded"].spans if s.name == "engine.run"
    )

    _, reference = best["sequential"]
    frames = len(reference[1]["roi_fractions"])
    record = {
        "sequences": len(EVAL_INDICES),
        "frames": frames,
        "bitwise_identical": all(
            outputs == reference for _, outputs in best.values()
        ),
    }
    for mode, (seconds, _) in best.items():
        record[f"{mode}_s"] = seconds
        record[f"{mode}_fps"] = frames / seconds
        record[f"stage_seconds_{mode}"] = {
            name: stage["wall_s"] for name, stage in stages[mode].items()
        }
    record["speedup"] = record["sequential_s"] / record["batched_s"]
    record["sharded_speedup"] = record["sequential_s"] / record["sharded_s"]
    record["workers"] = shard_attrs["workers"]
    record_bench(
        _RESULT_PATH,
        {
            "workload": "evaluate",
            "metrics": record,
            "provenance": {"spec_hash": spec.spec_hash()},
            "host": host_fingerprint(),
        },
    )
    return record, stages


def _fps_table(record: dict) -> Table:
    table = Table(
        ["mode", "frames/sec", "wall (ms)"],
        title=f"engine throughput ({record['frames']} frames, "
        f"{record['sequences']} sequences)",
    )
    for mode in MODES:
        label = f"sharded x{record['workers']}" if mode == "sharded" else mode
        table.add_row(
            label,
            round(record[f"{mode}_fps"]),
            round(record[f"{mode}_s"] * 1e3),
        )
    table.add_row("batched speedup", f"{record['speedup']:.2f}x", "")
    table.add_row("sharded speedup", f"{record['sharded_speedup']:.2f}x", "")
    return table


def test_engine_throughput(benchmark):
    baseline = same_host_baseline(_RESULT_PATH)
    record, stages = once(benchmark, run_engine_throughput)

    print()
    print(_fps_table(record).render())
    # The sharded stage seconds are summed over concurrent workers'
    # per-shard spans, not wall clock.
    for mode, mode_stages in stages.items():
        title = f"{mode}: measured wall-clock shares"
        print(stage_table(mode_stages, title).render())

    assert record["bitwise_identical"], (
        "batched/sharded mode diverged from each sequence alone"
    )
    assert record["speedup"] >= TARGET_SPEEDUP, (
        f"batched mode only {record['speedup']:.2f}x over sequential "
        f"(target {TARGET_SPEEDUP}x)"
    )
    if baseline is not None:
        limit = baseline["metrics"]["batched_s"] * (1 + BATCHED_REGRESSION_BOUND)
        assert record["batched_s"] <= limit, (
            f"batched mode took {record['batched_s']:.3f}s, over {limit:.3f}s "
            f"(newest same-host record {baseline['git']} "
            f"+{BATCHED_REGRESSION_BOUND:.0%})"
        )
    # The sharded trajectory: with one rank per shard in the workers and
    # the zero-copy transport, `workers=N` must actually win over the
    # sequential loop — even on a single-core host.
    assert record["workers"] == WORKERS
    assert record["sharded_speedup"] > 1.0, (
        f"sharded mode lost to sequential: {record['sharded_speedup']:.2f}x"
    )
