"""Resumable sweeps: kill a run mid-flight, rerun, replay bitwise.

The acceptance pin of the persistence layer: a ``Session(store=...)``
writes trained artifacts through to disk as they complete, so a killed
multi-strategy sweep restarted with ``--resume`` replays the completed
strategies from the store (``provenance.cache_hits`` records them) and
produces byte-identical ``RunResult`` metrics JSON vs an uninterrupted
run.  ``cache_hits`` itself necessarily differs between a resumed and
an uninterrupted run — it is provenance *about* caching — so the byte
pin is on the deterministic ``metrics`` payload.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, Session
from repro.store import ArtifactStore

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Three strategies, tiny geometry: enough work that a SIGTERM lands
#: mid-sweep, cheap enough for CI.
SWEEP = {
    "workload": "strategy_sweep",
    "dataset": {
        "num_sequences": 3,
        "frames_per_sequence": 6,
        "dynamics": "lively",
    },
    "strategy": {
        "names": ["Full+Random", "ROI+DS", "Ours (ROI+Random)"],
        "train_epochs": 2,
    },
    "training": {"train_indices": [0, 1]},
    "execution": {"eval_indices": [2]},
}


def _metrics_bytes(metrics: dict) -> bytes:
    return json.dumps(metrics, sort_keys=True).encode()


class TestSessionResume:
    """Session-level composition (no subprocess): store write-through,
    hydration, and whole-result reuse."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("ref") / "store"
        with Session(store=root) as session:
            result = session.run(ExperimentSpec.from_dict(SWEEP))
        return root, result

    def test_first_run_writes_through_and_has_no_hits(self, reference):
        root, result = reference
        assert result.provenance["cache_hits"] == []
        kinds = sorted(r.kind for r in ArtifactStore(root).find())
        assert kinds.count("strategy_training") == 3
        assert "run_result" in kinds

    def test_fresh_session_replays_from_store_bitwise(self, reference):
        root, result = reference
        with Session(store=root) as session:
            replay = session.run(ExperimentSpec.from_dict(SWEEP))
            hits = replay.provenance["cache_hits"]
            assert [h["kind"] for h in hits] == ["strategy_training"] * 3
            assert {h["source"] for h in hits} == {"store"}
            assert session.stats()["store_hydrations"] == 3
            assert session.stats()["train_cache_misses"] == 0
        assert _metrics_bytes(replay.metrics) == _metrics_bytes(
            result.metrics
        )

    def test_resume_reuses_the_whole_run_result(self, reference):
        root, result = reference
        with Session(store=root, resume=True) as session:
            resumed = session.run(ExperimentSpec.from_dict(SWEEP))
            hits = resumed.provenance["cache_hits"]
            assert [h["kind"] for h in hits] == ["run_result"]
            assert session.stats()["train_cache_misses"] == 0
        assert _metrics_bytes(resumed.metrics) == _metrics_bytes(
            result.metrics
        )

    def test_without_resume_run_result_is_not_reused(self, reference):
        root, _ = reference
        with Session(store=root, resume=False) as session:
            rerun = session.run(ExperimentSpec.from_dict(SWEEP))
        # The workload re-executed (strategies hydrated, result rebuilt).
        kinds = [h["kind"] for h in rerun.provenance["cache_hits"]]
        assert kinds == ["strategy_training"] * 3

    def test_partial_store_computes_only_whats_missing(self, reference):
        root, result = reference
        store = ArtifactStore(root)
        victim = next(
            r for r in store.find(kind="strategy_training")
            if "ROI+DS" in json.dumps(r.key)
        )
        store.remove_prefix(victim.digest)
        # Drop the completed-run entry too, or resume-less replay still
        # hydrates everything it needs without retraining.
        for record in list(store.find(kind="run_result")):
            store.remove_prefix(record.digest)
        with Session(store=root) as session:
            replay = session.run(ExperimentSpec.from_dict(SWEEP))
            assert session.stats()["train_cache_misses"] == 1
            assert session.stats()["store_hydrations"] == 2
        assert _metrics_bytes(replay.metrics) == _metrics_bytes(
            result.metrics
        )


class TestParentEraEntries:
    """A store written before the tracker moved into ``repro.api.tracker``
    holds format-1 pipeline entries whose payloads name a module that no
    longer exists.  The memo key did not change, so such an entry still
    *matches*; the format bump is what makes it a refused miss."""

    SPEC = {
        "workload": "evaluate",
        "dataset": {"num_sequences": 3, "frames_per_sequence": 4},
        "training": {"epochs": 1, "train_indices": [0, 1]},
    }

    def test_format_1_pipeline_is_refused_and_retrained(self, tmp_path):
        spec = ExperimentSpec.from_dict(self.SPEC)
        root = tmp_path / "store"
        with Session(store=root) as session:
            session.pipeline(spec)
        store = ArtifactStore(root)
        (record,) = store.find(kind="pipeline")
        # Rewrite the entry as the older tree wrote it: format 1, and a
        # payload naming a class in a module this tree does not have.
        blob = b"cretired_module\nBlissCamPipeline\n."
        meta = root / "entries" / f"{record.digest}.json"
        (root / "entries" / f"{record.digest}.pkl").write_bytes(blob)
        meta.write_text(
            json.dumps(
                {
                    **record.to_dict(),
                    "format": 1,
                    "nbytes": len(blob),
                    "payload_digest": hashlib.blake2b(
                        blob, digest_size=16
                    ).hexdigest(),
                }
            )
        )
        with Session(store=root) as session:
            pipeline = session.pipeline(spec)
            stats = session.stats()
        assert pipeline.train_result is not None
        assert stats["train_cache_misses"] == 1
        assert stats["store_hydrations"] == 0
        assert stats["store"]["stale_refused"] == 1
        # The retrained pipeline replaced the refused entry.
        assert not ArtifactStore(root).records()[0][0].stale


class TestKillAndResume:
    """The full pin: SIGTERM a sweep subprocess mid-run, rerun with
    ``--resume``, byte-compare against an uninterrupted run."""

    def test_sigterm_then_resume_is_byte_identical(self, tmp_path):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(SWEEP))
        store = tmp_path / "store"
        out_json = tmp_path / "out.json"
        env = {**os.environ, "PYTHONPATH": REPO_SRC}
        cmd = [
            sys.executable, "-m", "repro.cli", "run", str(spec_path),
            "--store", str(store), "--json", str(out_json),
        ]

        proc = subprocess.Popen(
            cmd, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        # Kill as soon as the first trained strategy lands on disk, so
        # the sweep is genuinely mid-flight (some work durable, some
        # not).
        entries = store / "entries"
        deadline = time.monotonic() + 300  # repro: allow[REP102] subprocess watchdog
        while time.monotonic() < deadline:  # repro: allow[REP102] subprocess watchdog
            if entries.exists() and sorted(entries.glob("*.json")):
                break
            if proc.poll() is not None:
                break
            time.sleep(0.01)  # repro: allow[REP102] poll backoff for a subprocess
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)

        completed = sorted(
            r.kind for r in ArtifactStore(store).find()
        )
        assert "strategy_training" in completed, (
            "SIGTERM landed before any strategy completed — the sweep "
            "never became resumable"
        )
        if not out_json.exists():
            # The expected case: the run died mid-sweep.  (If the race
            # lost and it finished, the resume below still must replay
            # bitwise — just from a complete store.)
            assert "run_result" not in completed

        resume_cmd = [*cmd, "--resume"]
        done = subprocess.run(
            resume_cmd, env=env, capture_output=True, timeout=600
        )
        assert done.returncode == 0, done.stderr.decode()
        resumed = json.loads(out_json.read_text())

        # Uninterrupted reference against a fresh store.
        ref_store = tmp_path / "ref_store"
        ref_json = tmp_path / "ref.json"
        ref_cmd = [
            sys.executable, "-m", "repro.cli", "run", str(spec_path),
            "--store", str(ref_store), "--json", str(ref_json),
        ]
        ref = subprocess.run(
            ref_cmd, env=env, capture_output=True, timeout=600
        )
        assert ref.returncode == 0, ref.stderr.decode()
        reference = json.loads(ref_json.read_text())

        assert _metrics_bytes(resumed["metrics"]) == _metrics_bytes(
            reference["metrics"]
        )
        hits = resumed["provenance"]["cache_hits"]
        assert hits, "resumed run skipped nothing — nothing was reused"
        # Every completed strategy was replayed from the store, not
        # retrained.
        assert all(h["source"] == "store" for h in hits)
        names_hit = {
            h["key"][-1]
            for h in hits
            if h["kind"] == "strategy_training"
        }
        survivors = {
            json.loads(json.dumps(r.key))[-1]
            for r in ArtifactStore(store).find(kind="strategy_training")
        }
        assert names_hit <= survivors or any(
            h["kind"] == "run_result" for h in hits
        )
