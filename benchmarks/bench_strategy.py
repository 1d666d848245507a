"""Strategy-sweep throughput: full-rank lockstep vs ranks of width 1.

Not a paper figure — this benchmark seeds the performance trajectory of
the Fig. 15 strategy harness (the eventify/sample/segment/regress
strategy graph that ``repro.api.tracker.evaluate_strategy`` runs).
Every stage has one kernel, ``process_batch``; the benchmark runs the
same (strategy, segmenter) graph through the same runner three ways:

* **per-row** — the width-1 reference: each sequence run alone, stepped
  frame by frame as ranks of width 1;
* **batched** — one call, full-rank lockstep (stacked eventification,
  batched sampling draws, one dense segmenter forward per rank,
  vectorized centroid regression);
* **sharded** — a 2-worker ``Shards`` handle over a ``Session``'s
  persistent pool and shared-memory channel, the only way anything
  shards (reported for the trajectory; at this scale dispatch
  dominates, so no speedup bar is placed on it).

Unlike the training bench, all three modes are bitwise-pinned: every
evaluated frame's gaze prediction, reuse flag and compression must be
byte-identical, asserted inline before any timing is reported.  The
geometry uses a wide rank of small frames — batching pays off in
python/numpy dispatch amortization, so the sweep-shaped workload (many
sequences, modest resolution, exactly the Fig. 15 shape) is where the
kernels earn their keep.  Appends to ``BENCH_strategy.json`` at the
repository root (git-stamped ``trajectory`` entries via the shared
``record_bench`` plumbing).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from _helpers import (
    BENCH_DYNAMICS,
    BENCH_EYE_SCALE,
    once,
    record_bench,
)
from repro.api import STRATEGIES, Session
from repro.engine import Shards, build_strategy_graph, strategy_runner
from repro.gaze.estimation import FittedGazeEstimator
from repro.segmentation import ViTConfig, ViTSegmenter
from repro.synth import DatasetConfig, SyntheticEyeDataset

#: Sweep-shaped geometry: a wide rank (8 sequences) of small frames.
HEIGHT = WIDTH = 32
SEQUENCES = 8
FRAMES = 24
#: The paper's headline policy — exercises ROI boxes, stochastic in-box
#: sampling, segmentation and gaze regression in one sweep.
STRATEGY = "Ours (ROI+Random)"
COMPRESSION = 8.0
EVAL_IDX = list(range(SEQUENCES))
#: Replica count of the sharded mode.
WORKERS = 2
#: The PR acceptance bar for the batched strategy sweep at CI scale.
TARGET_SPEEDUP = 1.5
#: Best-of repeats per mode.
REPEATS = 2

_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_strategy.json"


def _dataset() -> SyntheticEyeDataset:
    return SyntheticEyeDataset(
        DatasetConfig(
            height=HEIGHT,
            width=WIDTH,
            frames_per_sequence=FRAMES,
            num_sequences=SEQUENCES,
            seed=0,
            eye_scale=BENCH_EYE_SCALE,
            dynamics=BENCH_DYNAMICS,
        )
    )


def _segmenter() -> ViTSegmenter:
    return ViTSegmenter(
        ViTConfig(height=HEIGHT, width=WIDTH, patch=8, dim=24, heads=3,
                  depth=1, decoder_depth=1),
        np.random.default_rng(1),
    )


def _runner(dataset, segmenter):
    """The strategy graph's runner, built as ``evaluate_strategy`` builds
    it: the gaze estimator calibrated on the evaluation sequences."""
    strategy = STRATEGIES.get(STRATEGY)(COMPRESSION, dataset=dataset)
    rng = np.random.default_rng(int(np.random.default_rng(7).integers(2**32)))
    estimator = FittedGazeEstimator()
    estimator.fit(
        np.concatenate([dataset[i].segmentations for i in EVAL_IDX]),
        np.concatenate([dataset[i].gazes for i in EVAL_IDX]),
    )
    graph = build_strategy_graph(
        strategy=strategy, segmenter=segmenter, gaze_estimator=estimator,
        rng=rng,
    )
    return strategy_runner(graph, retain_intermediates=False)


def _outputs_bytes(contexts) -> bytes:
    """Canonical bytes of every evaluated frame's outputs."""
    return json.dumps(
        [
            (c.seq_index, c.t, [float(v) for v in c.gaze_pred],
             c.seg_reused, float(c.stats["compression"]))
            for c in contexts
            if not c.skipped
        ]
    ).encode()


def _time_mode(run) -> tuple[float, list]:
    """Best-of-REPEATS wall seconds of ``run()`` and its contexts."""
    best, contexts = None, None
    for _ in range(REPEATS):
        start = time.perf_counter()  # repro: allow[REP102] benchmark timing harness
        result = run()
        elapsed = time.perf_counter() - start  # repro: allow[REP102] benchmark timing harness
        if best is None or elapsed < best:
            best, contexts = elapsed, result
    return best, contexts


def run_strategy_bench() -> dict:
    dataset = _dataset()
    runner = _runner(dataset, _segmenter())
    sequences = [(i, dataset[i]) for i in EVAL_IDX]
    per_row_s, per_row = _time_mode(
        lambda: [c for seq in sequences for c in runner.run([seq]).contexts]
    )
    batched_s, batched = _time_mode(lambda: runner.run(sequences).contexts)
    with Session() as session:
        shards = Shards(
            session.executor(WORKERS), session.transport(), WORKERS
        )
        # Best-of-REPEATS: the first repeat forks the pool's workers,
        # later ones time steady-state dispatch.
        sharded_s, sharded = _time_mode(
            lambda: runner.run(sequences, shards=shards).contexts
        )

    # The speedup only counts if the outputs are byte-identical — a
    # faster sweep that drifts is a broken sweep.
    reference = _outputs_bytes(per_row)
    assert _outputs_bytes(batched) == reference, "batched sweep drifted"
    assert _outputs_bytes(sharded) == reference, "sharded sweep drifted"

    frames = sum(not c.skipped for c in per_row)
    record = {
        "strategy": STRATEGY,
        "compression": COMPRESSION,
        "sequences": SEQUENCES,
        "frames_per_sequence": FRAMES,
        "frames": frames,
        "workers": WORKERS,
        "per_row_s": per_row_s,
        "batched_s": batched_s,
        "sharded_s": sharded_s,
        "per_row_fps": frames / per_row_s,
        "batched_fps": frames / batched_s,
        "sharded_fps": frames / sharded_s,
        "speedup": per_row_s / batched_s,
        "sharded_speedup": per_row_s / sharded_s,
        "bitwise_identical": True,
    }
    record_bench(_RESULT_PATH, record)
    return record


def test_strategy_throughput(benchmark):
    record = once(benchmark, run_strategy_bench)

    print()
    print(
        f"strategy sweep ({STRATEGY}, {record['frames']} frames): "
        f"per-row {record['per_row_s']:.2f}s, "
        f"batched {record['batched_s']:.2f}s "
        f"({record['speedup']:.2f}x), "
        f"sharded(workers={WORKERS}) {record['sharded_s']:.2f}s "
        f"({record['sharded_speedup']:.2f}x)"
    )

    assert record["bitwise_identical"]
    assert record["speedup"] >= TARGET_SPEEDUP, (
        f"batched strategy sweep only {record['speedup']:.2f}x over the "
        f"width-1 sweep (target {TARGET_SPEEDUP}x)"
    )
