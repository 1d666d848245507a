"""Joint-training throughput: batched ranks vs per-frame stepping.

Not a paper figure — this benchmark seeds the performance trajectory of
the training runtime (``repro.training.runtime``), the counterpart of
``bench_engine_throughput`` (evaluation) and ``bench_serve`` (serving).
It trains identical CI-scale networks twice over the same dataset:

* **per-frame** — ``batch_size=1``: the paper-faithful stepping, one
  Adam step per frame pair (bitwise-pinned by ``tests/training/``
  against a transcription of the retired per-frame loop);
* **batched** — ``batch_size=BATCH``: each minibatch is one rank through
  the vectorized kernels (stacked eventification, batched ROI
  forward/backward, batched soft masks, one ViT forward/backward per
  minibatch) with one Adam step per minibatch.

The two schedules optimize differently by design (documented in
``docs/training.md``), so unlike the engine bench there is no bitwise
assertion — the wall-clock ratio is the price the per-frame loop was
paying in python/numpy dispatch.  Appends to ``BENCH_train.json`` at the
repository root (git-stamped ``trajectory`` entries via the shared
``record_bench`` plumbing).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from _helpers import (
    BENCH_DYNAMICS,
    BENCH_EYE_SCALE,
    once,
    record_bench,
)
from repro.sampling import ROIPredictor
from repro.segmentation import ViTConfig, ViTSegmenter
from repro.synth import DatasetConfig, SyntheticEyeDataset
from repro.training import JointTrainConfig, JointTrainer

#: CI-scale training geometry: two sequences of 24 frames -> 46 frame
#: pairs per epoch.
HEIGHT = WIDTH = 64
SEQUENCES = 2
FRAMES = 24
EPOCHS = 2
#: Rank width of the batched schedule.
BATCH = 8
#: The PR acceptance bar for batched joint training at CI scale.
TARGET_SPEEDUP = 1.5
#: Best-of repeats per schedule (fresh networks each repeat).
REPEATS = 2

_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_train.json"


def _dataset() -> SyntheticEyeDataset:
    return SyntheticEyeDataset(
        DatasetConfig(
            height=HEIGHT,
            width=WIDTH,
            frames_per_sequence=FRAMES,
            num_sequences=SEQUENCES,
            seed=7,
            eye_scale=BENCH_EYE_SCALE,
            dynamics=BENCH_DYNAMICS,
        )
    )


def _components():
    rng = np.random.default_rng(1)
    roi = ROIPredictor(HEIGHT, WIDTH, rng, base_channels=4)
    vit = ViTSegmenter(
        ViTConfig(height=HEIGHT, width=WIDTH, patch=8, dim=24, heads=3,
                  depth=1, decoder_depth=1),
        rng,
    )
    return roi, vit


def _time_schedule(dataset, batch_size: int) -> tuple[float, list[float]]:
    """Best-of-REPEATS wall seconds for one training schedule."""
    best, losses = None, None
    for _ in range(REPEATS):
        roi, vit = _components()
        trainer = JointTrainer(
            roi,
            vit,
            JointTrainConfig(epochs=EPOCHS, batch_size=batch_size),
            np.random.default_rng(3),
        )
        start = time.perf_counter()  # repro: allow[REP102] benchmark timing harness
        result = trainer.train(dataset, list(range(SEQUENCES)))
        elapsed = time.perf_counter() - start  # repro: allow[REP102] benchmark timing harness
        if best is None or elapsed < best:
            best, losses = elapsed, result.seg_losses
    return best, losses


def run_train_bench() -> dict:
    dataset = _dataset()
    pairs = SEQUENCES * (FRAMES - 1)
    per_frame_s, per_frame_losses = _time_schedule(dataset, batch_size=1)
    batched_s, batched_losses = _time_schedule(dataset, batch_size=BATCH)
    record = {
        "sequences": SEQUENCES,
        "frame_pairs_per_epoch": pairs,
        "epochs": EPOCHS,
        "batch_size": BATCH,
        "per_frame_s": per_frame_s,
        "batched_s": batched_s,
        "per_frame_pairs_per_s": pairs * EPOCHS / per_frame_s,
        "batched_pairs_per_s": pairs * EPOCHS / batched_s,
        "speedup": per_frame_s / batched_s,
        "per_frame_final_seg_loss": per_frame_losses[-1],
        "batched_final_seg_loss": batched_losses[-1],
    }
    record_bench(_RESULT_PATH, record)
    return record


def test_train_throughput(benchmark):
    record = once(benchmark, run_train_bench)

    print()
    print(
        f"joint training over {record['frame_pairs_per_epoch']} pairs x "
        f"{EPOCHS} epochs: per-frame {record['per_frame_s']:.2f}s, "
        f"batched(B={BATCH}) {record['batched_s']:.2f}s "
        f"({record['speedup']:.2f}x)"
    )

    assert np.isfinite(record["batched_final_seg_loss"])
    assert record["speedup"] >= TARGET_SPEEDUP, (
        f"batched joint training only {record['speedup']:.2f}x over the "
        f"per-frame loop (target {TARGET_SPEEDUP}x)"
    )
