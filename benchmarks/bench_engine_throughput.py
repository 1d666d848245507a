"""Engine throughput: sequential vs batched vs sharded.

Not a paper figure — this benchmark seeds the performance trajectory of
the staged execution engine (``repro.engine``).  It runs three
``evaluate`` specs through one ``repro.api`` session — the same front
door the CLI uses — so the tracker trains once (session-memoized) and
evaluates the same held-out sequences in each execution mode:

* ``sequential`` — ranks of width 1;
* ``batched`` — one vectorized lockstep rank (``execution.batched``);
* ``sharded`` — ``workers: 2`` with batched kernels inside each worker,
  work-stealing shards on the session's persistent pool with payloads
  on its shared-memory transport channel, the only way anything shards.

Each mode is timed around ``Session.run``, untraced (a tracer would make
every sharded job capture and ship its spans home), best of ``REPEATS``
after one warm-up run, which also forks the pool so the sharded time
measures steady-state dispatch, not the first fork.  The timed window
also holds the run's provenance stamping (a ``git describe``, ~5 ms on
a 2-vCPU VM).  One traced sharded run afterwards reads what the engine
executed from its ``engine.run`` span.  The bench checks the three
modes' metrics are bitwise identical (aggregates only; per-frame
identity is pinned by ``tests/engine/test_sharded.py``) and prints
frames/sec plus each mode's per-stage wall-clock attribution (the
measured counterpart of the Figs. 13/14 breakdowns).

Appends to ``BENCH_engine.json`` at the repository root (a git-stamped
``trajectory`` entry) so successive PRs accumulate the perf history.
"""

from __future__ import annotations

import time
from pathlib import Path

from _helpers import (
    BENCH_EPOCHS,
    BENCH_EYE_SCALE,
    host_fingerprint,
    once,
    record_bench,
    same_host_baseline,
)
from repro.api import ExperimentSpec, Session
from repro.api.result import Table, stage_timing_table
from repro.obs import Tracer, install_tracer

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
#: Worker processes for the sharded mode.  Bitwise identity to the
#: sequential loop is always enforced.
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

#: Execution-section overrides per mode.  The sharded mode sets
#: ``batched`` explicitly: batched kernels inside each worker are the
#: production sharded configuration (sharding width-1 ranks would
#: measure pure dispatch overhead on single-core hosts).
MODES = {
    "sequential": {},
    "batched": {"batched": True},
    "sharded": {"batched": True, "workers": WORKERS},
}


def _spec(mode: str, eval_indices: list[int]) -> ExperimentSpec:
    execution = {**MODES[mode], "eval_indices": eval_indices}
    return ExperimentSpec.from_dict({**BENCH_SPEC, "execution": execution})


def _best_run(session: Session, spec: ExperimentSpec):
    """``(seconds, RunResult)`` of the fastest of ``REPEATS`` runs."""
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()  # repro: allow[REP102] benchmark timing harness
        result = session.run(spec)
        elapsed = time.perf_counter() - start  # repro: allow[REP102] benchmark timing harness
        runs.append((elapsed, result))
    return min(runs, key=lambda run: run[0])


def run_engine_throughput() -> tuple[dict, dict]:
    """The trajectory record and each mode's best ``RunResult``."""
    best = {}
    with Session() as session:
        for mode in MODES:
            # Warm the memoized training, dataset cache, sensor template
            # and (for the sharded mode) the pool's workers.
            session.run(_spec(mode, EVAL_INDICES[:2]))
            best[mode] = _best_run(session, _spec(mode, EVAL_INDICES))
        # What the sharded run actually executed, as its engine.run span
        # records it (the runner clamps workers to the sequence count).
        tracer = Tracer()
        with install_tracer(tracer):
            session.run(_spec("sharded", EVAL_INDICES))
    shard_attrs = next(
        s.attrs for s in tracer.spans if s.name == "engine.run"
    )

    _, seq_result = best["sequential"]
    frames = seq_result.metrics["frames"]
    record = {
        "sequences": len(EVAL_INDICES),
        "frames": frames,
        "bitwise_identical": all(
            result.metrics == seq_result.metrics for _, result in best.values()
        ),
    }
    for mode, (seconds, result) in best.items():
        record[f"{mode}_s"] = seconds
        record[f"{mode}_fps"] = frames / seconds
        record[f"stage_seconds_{mode}"] = {
            name: timing["seconds"]
            for name, timing in result.stage_timings.items()
        }
    record["speedup"] = record["sequential_s"] / record["batched_s"]
    record["sharded_speedup"] = record["sequential_s"] / record["sharded_s"]
    record["workers"] = shard_attrs["workers"]
    record["sharded_batched"] = shard_attrs["batched"]
    record_bench(
        _RESULT_PATH,
        {
            "workload": "evaluate",
            "metrics": record,
            "provenance": {
                mode: result.provenance["spec_hash"]
                for mode, (_, result) in best.items()
            },
            "host": host_fingerprint(),
        },
    )
    return record, {mode: result for mode, (_, result) in best.items()}


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
    record, results = once(benchmark, run_engine_throughput)

    print()
    print(_fps_table(record).render())
    # The sharded stage seconds are CPU time summed over concurrent
    # workers (shard timings add), not wall clock.
    for mode, result in results.items():
        title = f"{mode}: measured wall-clock shares"
        print(stage_timing_table(result.stage_timings, title).render())

    assert record["bitwise_identical"], (
        "batched/sharded mode diverged from sequential"
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
    # The sharded trajectory: with batched kernels in the workers and
    # the zero-copy transport, `workers=N` must actually win over the
    # sequential loop — even on a single-core host.
    assert record["workers"] == WORKERS
    assert record["sharded_batched"] is True
    assert record["sharded_speedup"] > 1.0, (
        f"sharded mode lost to sequential: {record['sharded_speedup']:.2f}x"
    )
