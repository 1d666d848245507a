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

import json
import os
import platform
from pathlib import Path

import numpy as np

from repro.api.result import git_describe
from repro.api.session import LIVELY_DYNAMICS
from repro.core import ci
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
    front door (and get ``RunResult.stage_timings`` for free)."""
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


def host_fingerprint() -> dict:
    """The host facts a wall-clock record is only comparable under."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": " ".join(str(blas.get("openblas configuration", "")).split()),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def same_host_baseline(path: str | Path) -> dict | None:
    """Newest trajectory entry of ``path`` recorded on this host, if any.

    Wall-clock gates compare against it: a record from another host (a
    CI runner, a different BLAS build) says nothing about this one, so
    without a same-host entry there is no baseline.
    """
    try:
        trajectory = json.loads(Path(path).read_text()).get("trajectory", [])
    except (OSError, json.JSONDecodeError):
        return None
    host = host_fingerprint()
    for entry in reversed(trajectory):
        if entry.get("host") == host:
            return entry
    return None


def record_bench(path: str | Path, record: dict) -> dict:
    """Append a benchmark run to ``path``'s performance trajectory.

    ``BENCH_*.json`` files are the perf history successive PRs track:
    ``latest`` holds this run's record and ``trajectory`` accumulates
    every run, each entry stamped with ``git describe`` — appending
    instead of overwriting is what makes the history non-empty across
    PRs.  Entries from a dirty working tree carry an explicit
    ``"dirty": true`` flag (not just the ``-dirty`` describe suffix), so
    trajectory consumers can filter uncommitted-state runs without
    string-parsing the stamp.  A re-run whose git stamp *and* record are
    identical to the previous trajectory entry refreshes ``latest`` but
    appends nothing — deterministic benches re-run at the same commit
    must not inflate the history.  Unrecognized existing content (the
    pre-trajectory flat ``RunResult`` envelope) is absorbed as the first
    trajectory entry rather than discarded.
    """
    path = Path(path)
    git = git_describe()
    entry = {"git": git, "dirty": git.endswith("-dirty"), **record}
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        data = {}
    trajectory = data.get("trajectory")
    if trajectory is None:
        # Migrate a legacy flat record into the history it belongs to.
        trajectory = [data] if data else []
    if not trajectory or trajectory[-1] != entry:
        trajectory.append(entry)
    out = {"latest": entry, "trajectory": trajectory}
    path.write_text(json.dumps(out, indent=2) + "\n")
    return out
