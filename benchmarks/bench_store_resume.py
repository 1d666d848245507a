"""Artifact-store resume: cold sweep vs store replay vs whole-run reuse.

Not a paper figure — this benchmark times the persistence layer
(``repro.store``).  It runs one declarative ``strategy_sweep`` spec
three ways through ``repro.api``:

1. **cold** — a fresh ``Session(store=...)`` against an empty store:
   every strategy trains and writes through to disk;
2. **replay** — a second fresh session against the populated store:
   every strategy hydrates from disk (``store_hydrations`` == the
   strategy count, zero retraining), metrics byte-identical to cold;
3. **resume** — ``Session(store=..., resume=True)``: the completed
   run's stored ``RunResult`` is reused wholesale by spec hash.

``replay_speedup``/``resume_speedup`` are the cold-vs-warm ratios —
what the store buys a killed-and-restarted sweep.  Bitwise identity is
asserted here and pinned by ``tests/store/test_resume.py``; the
wall-clock ratios are advisory on shared runners but replay must not
*lose* to retraining.

Each session runs with a :class:`~repro.obs.Tracer`, and each time is
that run's ``session.run`` span, so the trace is the clock.  The record
is printed, not stored: perfbench is the repository's speed record.
"""

from __future__ import annotations

import json
from pathlib import Path

from _helpers import once
from repro.api import ExperimentSpec, Session
from repro.obs import Tracer
from repro.store import ArtifactStore

STRATEGIES = ["Full+Random", "ROI+DS", "Ours (ROI+Random)"]

BENCH_SPEC = {
    "workload": "strategy_sweep",
    "dataset": {
        "num_sequences": 3,
        "frames_per_sequence": 6,
        "dynamics": "lively",
    },
    "strategy": {"names": STRATEGIES, "train_epochs": 2},
    "training": {"train_indices": [0, 1]},
    "execution": {"eval_indices": [2]},
}


def _metrics_bytes(result) -> bytes:
    return json.dumps(result.metrics, sort_keys=True).encode()


def _timed_run(store_root, resume=False):
    """(result, stats, seconds) of one fresh traced session; the seconds
    are the wall duration of its ``session.run`` span."""
    spec = ExperimentSpec.from_dict(BENCH_SPEC)
    tracer = Tracer()
    with Session(store=store_root, resume=resume, trace=tracer) as session:
        result = session.run(spec)
        stats = session.stats()
    (run_span,) = [s for s in tracer.spans if s.name == "session.run"]
    return result, stats, run_span.wall["dur_s"]


def run_store_resume(tmp_root: Path) -> dict:
    store_root = tmp_root / "store"

    cold, cold_stats, cold_s = _timed_run(store_root)
    replay, replay_stats, replay_s = _timed_run(store_root)
    resumed, resume_stats, resume_s = _timed_run(store_root, resume=True)

    assert _metrics_bytes(replay) == _metrics_bytes(cold)
    assert _metrics_bytes(resumed) == _metrics_bytes(cold)
    assert cold_stats["train_cache_misses"] == len(STRATEGIES)
    assert replay_stats["store_hydrations"] == len(STRATEGIES)
    assert replay_stats["train_cache_misses"] == 0
    assert [h["kind"] for h in resumed.provenance["cache_hits"]] == [
        "run_result"
    ]

    occupancy = ArtifactStore(store_root).stats()
    record = {
        "workload": "store_resume",
        "strategies": len(STRATEGIES),
        "cold_seconds": cold_s,
        "replay_seconds": replay_s,
        "resume_seconds": resume_s,
        "replay_speedup": cold_s / replay_s,
        "resume_speedup": cold_s / resume_s,
        "store_entries": occupancy["entries"],
        "store_bytes": occupancy["bytes"],
        "bitwise_identical": True,
    }
    return record


def test_store_resume(benchmark, tmp_path):
    record = once(benchmark, lambda: run_store_resume(tmp_path))

    print()
    print(json.dumps(record, sort_keys=True))
    print(
        f"cold {record['cold_seconds']:.2f}s  "
        f"replay {record['replay_seconds']:.2f}s "
        f"({record['replay_speedup']:.1f}x)  "
        f"resume {record['resume_seconds']:.2f}s "
        f"({record['resume_speedup']:.1f}x)  "
        f"[{record['store_entries']} entries, "
        f"{record['store_bytes']} bytes on disk]"
    )

    # Replaying trained artifacts from disk must beat retraining them;
    # whole-run reuse must beat both.  Advisory margins (shared
    # runners), but losing outright means the store costs more than it
    # saves.
    assert record["replay_speedup"] > 1.0, record
    assert record["resume_speedup"] > record["replay_speedup"], record
