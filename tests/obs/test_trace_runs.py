"""Traced runs end to end: session wiring, gauges, determinism.

The determinism pins here: two identical traced runs (fresh state
each) must produce byte-identical deterministic planes, including the
worker spans that pool jobs bring home with their results.
"""

import pytest

from repro.api import ExperimentSpec, Session
from repro.obs import Tracer, deterministic_bytes, install_tracer, read_trace

#: Cheapest spec that trains + evaluates.
TINY = {
    "workload": "evaluate",
    "dataset": {"num_sequences": 3, "frames_per_sequence": 6},
    "training": {"epochs": 1},
}

#: Small sweep that fans per-strategy jobs across the Session's pool —
#: the cross-process capture/merge path under test.
SWEEP_SHARDED = {
    "workload": "strategy_sweep",
    "dataset": {
        "num_sequences": 3,
        "frames_per_sequence": 6,
        "dynamics": "lively",
    },
    "strategy": {"names": ["ROI+DS", "Ours (ROI+Random)"], "train_epochs": 1},
    "training": {"train_indices": [0, 1]},
    "execution": {"eval_indices": [2], "workers": 2},
}

SERVE_TINY = {
    "workload": "serve",
    "dataset": {
        "num_sequences": 3,
        "frames_per_sequence": 8,
        "dynamics": "lively",
    },
    "training": {"train_indices": [0, 1], "epochs": 1},
    "execution": {"serve": {"num_clients": 2, "duration_ticks": 4}},
}


def _span_names(records):
    return [r["name"] for r in records if r.get("type") == "span"]


def _counters(records):
    return {
        r["name"]: r["value"]
        for r in records
        if r.get("type") == "counter"
    }


class TestSessionWiring:
    def test_untraced_run_has_no_trace_provenance(self):
        with Session() as session:
            result = session.run(ExperimentSpec.from_dict(TINY))
        assert "trace" not in result.provenance
        assert session.stats()["trace"]["spans"] == 0

    def test_session_trace_path_writes_sink(self, tmp_path):
        sink = tmp_path / "run.jsonl"
        with Session(trace=sink) as session:
            result = session.run(ExperimentSpec.from_dict(TINY))
        info = result.provenance["trace"]
        assert info["path"] == str(sink)
        assert info["spans"] > 0
        assert sink.stat().st_size == info["sink_bytes"]
        records = read_trace(sink)
        names = _span_names(records)
        assert names[0] == "session.run"
        assert "train.epoch" in names
        assert "engine.stage" in names
        assert session.stats()["trace"]["spans"] == info["spans"]

    def test_spec_enabled_trace_uses_spec_sink(self, tmp_path):
        sink = tmp_path / "spec-sink.jsonl"
        spec = ExperimentSpec.from_dict(TINY).with_trace(sink=str(sink))
        with Session() as session:
            result = session.run(spec)
        assert result.provenance["trace"]["path"] == str(sink)
        assert sink.exists()

    def test_injected_tracer_records_without_sink(self):
        tracer = Tracer()
        with Session(trace=tracer) as session:
            result = session.run(ExperimentSpec.from_dict(TINY))
        assert "path" not in result.provenance["trace"]
        assert len(tracer.spans) == result.provenance["trace"]["spans"]

    def test_trace_section_is_hash_exempt(self, tmp_path):
        spec = ExperimentSpec.from_dict(TINY)
        traced = spec.with_trace(sink=str(tmp_path / "t.jsonl"))
        assert spec.spec_hash() == traced.spec_hash()

    def test_trace_spec_validation(self):
        with pytest.raises(Exception, match="execution.trace.sink"):
            ExperimentSpec.from_dict(
                {
                    **TINY,
                    "execution": {"trace": {"enabled": True, "sink": ""}},
                }
            )


class TestServeGauges:
    def test_queue_depth_gauges_and_serve_counters(self, tmp_path):
        sink = tmp_path / "serve.jsonl"
        with Session(trace=sink) as session:
            session.run(ExperimentSpec.from_dict(SERVE_TINY))
        records = read_trace(sink)
        gauge_names = {
            r["name"] for r in records if r.get("type") == "gauge"
        }
        # Per-tick series from the scheduler, roll-ups from the
        # workload — both built from the repro.obs.names table.
        assert "serve.queue_depth" in gauge_names
        assert "serve.queue_depth.max" in gauge_names
        assert "serve.queue_depth.mean" in gauge_names
        counters = _counters(records)
        assert counters["serve.ticks"] == 4
        assert "serve.tick" in _span_names(records)


class TestDeterminism:
    def _traced_run(self, spec_dict, sink):
        # A fresh Session per run: memoization or store hydration would
        # legitimately change run 2's span stream (fewer trainings, gets
        # instead of puts), which is not the drift under test.
        with Session(trace=sink) as session:
            session.run(ExperimentSpec.from_dict(spec_dict))
        return read_trace(sink)

    def test_identical_runs_identical_deterministic_planes(self, tmp_path):
        left = self._traced_run(TINY, tmp_path / "a.jsonl")
        right = self._traced_run(TINY, tmp_path / "b.jsonl")
        assert deterministic_bytes(left) == deterministic_bytes(right)
        # Sanity: the wall planes do differ (real time was measured).
        assert (tmp_path / "a.jsonl").read_bytes() != (
            tmp_path / "b.jsonl"
        ).read_bytes()

    def test_pool_merge_is_stable_and_reparented(self, tmp_path):
        left = self._traced_run(SWEEP_SHARDED, tmp_path / "a.jsonl")
        right = self._traced_run(SWEEP_SHARDED, tmp_path / "b.jsonl")
        assert deterministic_bytes(left) == deterministic_bytes(right)
        names = _span_names(left)
        assert "executor.job" in names
        counters = _counters(left)
        assert counters["executor.jobs"] == 2
        assert counters["executor.worker_spans_merged"] > 0
        # Every merged worker span hangs off a submit-side job anchor:
        # walking parents from any span reaches session.run, so the
        # cross-process trace is one tree.
        spans = {
            r["id"]: r for r in left if r.get("type") == "span"
        }
        roots = [r for r in spans.values() if r["parent"] is None]
        assert [r["name"] for r in roots] == ["session.run"]
        for record in spans.values():
            seen = set()
            node = record
            while node["parent"] is not None:
                assert node["id"] not in seen
                seen.add(node["id"])
                node = spans[node["parent"]]
            assert node["name"] == "session.run"

    def test_summary_detail_skips_per_tick_spans(self, tmp_path):
        sink = tmp_path / "summary.jsonl"
        spec = ExperimentSpec.from_dict(SERVE_TINY).with_trace(
            sink=str(sink), detail="summary"
        )
        with Session() as session:
            session.run(spec)
        records = read_trace(sink)
        names = _span_names(records)
        assert "serve.tick" not in names
        assert "session.run" in names
        # Counters survive the reduced detail level.
        assert _counters(records)["serve.ticks"] == 4

    def test_sharded_serve_replicas_follow_summary_detail(self, tmp_path):
        # Replica workers capture at the dispatcher's detail level, so
        # summary detail keeps their per-tick spans at home too.
        sink = tmp_path / "summary-sharded.jsonl"
        spec = ExperimentSpec.from_dict(
            {
                **SERVE_TINY,
                "execution": {**SERVE_TINY["execution"], "workers": 2},
            }
        ).with_trace(sink=str(sink), detail="summary")
        with Session() as session:
            session.run(spec)
        records = read_trace(sink)
        assert "serve.tick" not in _span_names(records)
        counters = _counters(records)
        assert counters["executor.jobs"] == 2
        # Each replica runs every tick; their counters merged home.
        assert counters["serve.ticks"] == 2 * 4


class TestTraceOutsideSession:
    def _traced_evaluate(self) -> bytes:
        # A tracer installed around evaluate() itself, not Session.run:
        # the merge happens as each shard result is consumed, so nothing
        # is left pending afterwards.  A fresh Session per run, as in
        # TestDeterminism: a reused channel would legitimately flip the
        # transport.publish spans' ``reused`` attrs.
        with Session() as session:
            pipeline = session.pipeline(ExperimentSpec.from_dict(TINY))
            executor = session.executor(2)
            tracer = Tracer()
            with install_tracer(tracer):
                pipeline.evaluate(
                    [0, 1, 2],
                    workers=2,
                    executor=executor,
                    transport=session.transport(),
                )
            assert executor.unmerged_jobs == 0
        return deterministic_bytes(tracer.to_records())

    def test_traced_sharded_evaluate_is_deterministic(self):
        first = self._traced_evaluate()
        assert first == self._traced_evaluate()
        assert b"executor.job" in first
