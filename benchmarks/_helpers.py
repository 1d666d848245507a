"""Shared plumbing for the benchmark harness.

Every ``bench_*`` module regenerates one table or figure from the paper's
evaluation section: it prints the same rows/series the paper reports plus
a ``[paper-vs-measured]`` comparison block.  Accuracy experiments run the
*live* pipeline (train tiny networks on the synthetic dataset); energy,
latency and area experiments query the calibrated hardware models.

Run with ``pytest benchmarks/ --benchmark-only``.

All live-pipeline benchmarks (Figs. 12-16, Table I, ablations) execute on
the shared :mod:`repro.engine` stage runtime — the same graphs the CLI
and the test suite run — so the numbers they report exercise the
production code path, not a parallel harness.
"""

from __future__ import annotations

import numpy as np

from repro.api.session import LIVELY_DYNAMICS
from repro.api.tracker import ci
from repro.segmentation import ViTConfig, ViTSegmenter
from repro.synth import DatasetConfig, SyntheticEyeDataset

#: Common CI-scale experiment geometry (kept small so the whole harness
#: finishes in minutes of pure-numpy compute).
BENCH_HEIGHT = BENCH_WIDTH = 64
#: Eye scale matching the paper's foreground-to-frame ratio (~13-20 % ROI).
BENCH_EYE_SCALE = 0.6
BENCH_SEQUENCES = 4
BENCH_FRAMES = 24
BENCH_EPOCHS = 6

#: Livelier oculomotor statistics so short sequences still contain
#: saccades and pursuits — otherwise a degenerate "predict the centre"
#: tracker looks perfect and the accuracy figures lose their signal.
#: This is the spec's ``dataset.dynamics == "lively"`` preset, shared by
#: construction so the declarative benches cannot drift from the
#: imperative ones.
BENCH_DYNAMICS = LIVELY_DYNAMICS


def bench_dataset(seed: int = 0, fps: float = 120.0) -> SyntheticEyeDataset:
    return SyntheticEyeDataset(
        DatasetConfig(
            height=BENCH_HEIGHT,
            width=BENCH_WIDTH,
            fps=fps,
            frames_per_sequence=BENCH_FRAMES,
            num_sequences=BENCH_SEQUENCES,
            seed=seed,
            eye_scale=BENCH_EYE_SCALE,
            dynamics=BENCH_DYNAMICS,
        )
    )


def bench_vit(seed: int = 1) -> ViTSegmenter:
    cfg = ViTConfig(
        height=BENCH_HEIGHT,
        width=BENCH_WIDTH,
        patch=8,
        dim=24,
        heads=3,
        depth=1,
        decoder_depth=1,
    )
    return ViTSegmenter(cfg, np.random.default_rng(seed))


def bench_pipeline_config(
    fps: float = 120.0,
    seed: int = 0,
    num_sequences: int = BENCH_SEQUENCES,
    frames_per_sequence: int = BENCH_FRAMES,
):
    from dataclasses import replace

    config = ci(
        seed=seed,
        num_sequences=num_sequences,
        frames_per_sequence=frames_per_sequence,
        fps=fps,
    )
    return replace(
        config,
        dataset=replace(
            config.dataset, dynamics=BENCH_DYNAMICS, eye_scale=BENCH_EYE_SCALE
        ),
        joint=replace(config.joint, epochs=BENCH_EPOCHS),
    )


def bench_evaluate_spec(fps: float = 120.0, seed: int = 0) -> dict:
    """The ``bench_pipeline_config`` geometry as a declarative
    ``repro.api`` evaluate spec — for benchmarks that route through the
    front door (a traced run adds per-stage ``engine.stage`` spans)."""
    return {
        "workload": "evaluate",
        "dataset": {
            "num_sequences": BENCH_SEQUENCES,
            "frames_per_sequence": BENCH_FRAMES,
            "fps": fps,
            "seed": seed,
            "eye_scale": BENCH_EYE_SCALE,
            "dynamics": "lively",
        },
        "training": {"epochs": BENCH_EPOCHS},
        "execution": {"fps": fps},
    }


def once(benchmark, fn):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)

