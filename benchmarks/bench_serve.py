"""Serving throughput: cross-client micro-batching vs per-client dispatch.

Not a paper figure — this benchmark seeds the performance trajectory of
the serving runtime (``repro.serve``).  It trains one CI-scale tracker
through ``repro.api`` (session-memoized), materializes a fleet of
synthetic client eye-streams, and serves the *same* frames twice:

* **per-client sequential** — every queued frame dispatched alone as a
  width-1 rank (the naive one-loop-per-stream server);
* **micro-batched** — each tick's due frames dispatched as one
  cross-client rank through the same ``process_batch`` kernels
  (vectorized eventification, grouped packed-ViT inference).

Both modes produce bitwise-identical per-client gaze streams (asserted
here and pinned by ``tests/serve/``); the wall-clock ratio is the
benefit of batching *across tenants* rather than across a dataset.  The
timed window is ``Scheduler.run`` alone, as in perfbench's ``serve``
workload: the client streams are materialized before the clock starts.
Appends to ``BENCH_serve.json`` at the repository root (git-stamped
``trajectory`` entries, shared ``record_bench`` plumbing).
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
from repro.serve import (
    ClientSensorFactory,
    Scheduler,
    ServeScenario,
    SLOModel,
    Telemetry,
    build_streams,
    materialize_arrivals,
)

#: Wide client fleet: micro-batching pays off when many tenants are due
#: per tick (the production multi-user story), so the bench serves 24.
CLIENTS = 24
TICKS = 10
#: The acceptance bar for micro-batched serving at CI scale.  Both modes
#: run the same stage kernels (per-client = ranks of width 1), so this is
#: the gain from rank width alone; it was 1.5 while per-client dispatch
#: ran separate per-frame kernels with a slower token-level RLE readout.
TARGET_SPEEDUP = 1.3
#: The width ratio no longer bounds micro-batched serving by itself (its
#: baseline got faster), so batched seconds are also gated against the
#: newest ``BENCH_serve.json`` entry recorded on the same host: at most
#: this much slower.  Ten runs of unchanged code on a 2-vCPU x86 VM
#: spread 0.256-0.345 s (max/min 1.35).
BATCHED_REGRESSION_BOUND = 0.35
#: Best-of repeats per mode (the served frames are identical each time).
REPEATS = 3

_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_serve.json"

BENCH_SPEC = {
    "workload": "serve",
    "dataset": {
        "num_sequences": 3,
        "frames_per_sequence": 8,
        "seed": 11,
        "eye_scale": BENCH_EYE_SCALE,
        "dynamics": "lively",
    },
    "training": {"train_indices": [0, 1], "epochs": BENCH_EPOCHS},
}

SCENARIO = ServeScenario(num_clients=CLIENTS, duration_ticks=TICKS)


def run_serve_bench() -> dict:
    spec = ExperimentSpec.from_dict(BENCH_SPEC)
    with Session() as session:
        pipeline = session.pipeline(spec)
    graph, template = pipeline.tracking_setup()
    factory = ClientSensorFactory(template, spec.sensor.sensor_seed)
    dataset_cfg = pipeline.config.dataset
    slo = SLOModel.from_hardware(
        fps=dataset_cfg.fps,
        slack_ticks=SCENARIO.deadline_slack_ticks,
        policy=SCENARIO.deadline_policy,
    )

    def serve(micro_batch: bool):
        """``(seconds, gaze_log, summary)`` of the fastest of ``REPEATS``
        scheduler runs."""
        best = None
        for _ in range(REPEATS):
            streams = build_streams(
                dataset_cfg,
                list(range(CLIENTS)),
                arrival=SCENARIO.arrival,
                seed=SCENARIO.seed,
            )
            arrivals = materialize_arrivals(streams, TICKS)
            telemetry = Telemetry(
                tick_s=slo.tick_s,
                deadline_s=slo.deadline_s,
                duration_ticks=TICKS,
            )
            scheduler = Scheduler(
                graph,
                factory,
                slo,
                max_batch=SCENARIO.max_batch,
                queue_capacity=SCENARIO.queue_capacity,
                micro_batch=micro_batch,
            )
            start = time.perf_counter()  # repro: allow[REP102] benchmark timing harness
            gaze_log = scheduler.run(arrivals, telemetry)
            seconds = time.perf_counter() - start  # repro: allow[REP102] benchmark timing harness
            if best is None or seconds < best[0]:
                best = (seconds, gaze_log, telemetry.summary())
        return best

    sequential_s, sequential_log, _ = serve(micro_batch=False)
    batched_s, batched_log, summary = serve(micro_batch=True)
    frames = summary["frames"]["processed"]
    record = {
        "clients": CLIENTS,
        "duration_ticks": TICKS,
        "frames": frames,
        "sequential_s": sequential_s,
        "batched_s": batched_s,
        "sequential_fps": frames / sequential_s,
        "batched_fps": frames / batched_s,
        "speedup": sequential_s / batched_s,
        "bitwise_identical": batched_log == sequential_log,
        "telemetry": summary,
        "host": host_fingerprint(),
    }
    record_bench(_RESULT_PATH, record)
    return record


def test_serve_throughput(benchmark):
    baseline = same_host_baseline(_RESULT_PATH)
    record = once(benchmark, run_serve_bench)

    print()
    print(
        f"served {record['frames']} frames from {CLIENTS} clients: "
        f"per-client {record['sequential_fps']:.0f} fps, "
        f"micro-batched {record['batched_fps']:.0f} fps "
        f"({record['speedup']:.2f}x)"
    )

    assert record["bitwise_identical"], (
        "micro-batched serving diverged from per-client dispatch"
    )
    assert record["speedup"] >= TARGET_SPEEDUP, (
        f"cross-client micro-batching only {record['speedup']:.2f}x over "
        f"per-client sequential dispatch (target {TARGET_SPEEDUP}x)"
    )
    if baseline is not None:
        limit = baseline["batched_s"] * (1 + BATCHED_REGRESSION_BOUND)
        assert record["batched_s"] <= limit, (
            f"micro-batched serving took {record['batched_s']:.3f}s, over "
            f"{limit:.3f}s (newest same-host record {baseline['git']} "
            f"+{BATCHED_REGRESSION_BOUND:.0%})"
        )
