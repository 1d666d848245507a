"""Traced runs end to end: session wiring, gauges, determinism.

The determinism pins here: two identical traced runs (fresh state
each) must produce byte-identical deterministic planes, including the
worker spans that pool jobs bring home with their results.
"""

import json

import pytest

from repro.api import ExperimentSpec, Session, SpecError
from repro.engine import Shards
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

#: A 4x4 CI dataset, sharded over two workers: two training sequences,
#: two held-out ones, so evaluation and the sweep both really fan out.
_CI_4X4 = {
    "dataset": {"num_sequences": 4, "frames_per_sequence": 4},
    "training": {"epochs": 1, "train_indices": [0, 1]},
    "execution": {"workers": 2, "eval_indices": [2, 3]},
}
TRACE_PARITY_SPECS = {
    "evaluate": {**_CI_4X4, "workload": "evaluate"},
    "strategy_sweep": {
        **_CI_4X4,
        "workload": "strategy_sweep",
        "strategy": {
            "names": ["ROI+DS", "Ours (ROI+Random)"],
            "train_epochs": 1,
        },
    },
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


def _job_names(records):
    """The ``job`` attr of every ``executor.job`` span: each site's own
    job, never the shared worker entry."""
    return [
        r["attrs"]["job"]
        for r in records
        if r.get("type") == "span" and r["name"] == "executor.job"
    ]


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

    def test_trace_file_keeps_every_run_of_the_session(self, tmp_path):
        # One tracer for the session's life: the file rewritten after
        # run 2 still holds run 1's root.
        sink = tmp_path / "two-runs.jsonl"
        with Session(trace=sink) as session:
            first = session.run({"workload": "energy"})
            second = session.run({"workload": "latency"})
        records = read_trace(sink)
        roots = [
            (r["name"], r["attrs"]["workload"])
            for r in records
            if r.get("type") == "span" and r["parent"] is None
        ]
        assert roots == [("session.run", "energy"), ("session.run", "latency")]
        assert sink.stat().st_size == second.provenance["trace"]["sink_bytes"]
        assert len(_span_names(records)) == (
            first.provenance["trace"]["spans"]
            + second.provenance["trace"]["spans"]
        )

    def test_injected_tracer_records_without_sink(self):
        tracer = Tracer()
        with Session(trace=tracer) as session:
            result = session.run(ExperimentSpec.from_dict(TINY))
        assert "path" not in result.provenance["trace"]
        assert len(tracer.spans) == result.provenance["trace"]["spans"]

    def test_injected_tracer_reports_each_runs_own_counts(self):
        tracer = Tracer()
        with Session(trace=tracer) as session:
            first = session.run({"workload": "energy"})
            after_first = len(tracer.spans)
            second = session.run({"workload": "energy"})
        assert first.provenance["trace"]["spans"] == after_first
        assert (
            second.provenance["trace"]["spans"]
            == len(tracer.spans) - after_first
        )
        assert second.provenance["trace"]["spans_dropped"] == 0

    def test_traced_run_resumes_untraced(self, tmp_path):
        # Tracing lives outside the spec, so a traced run stores under
        # the same spec hash an untraced run resumes from.
        store = tmp_path / "store"
        with Session(store=store, trace=Tracer()) as session:
            traced = session.run(TINY)
        with Session(store=store, resume=True) as session:
            resumed = session.run(TINY)
        assert resumed.metrics == traced.metrics
        assert [h["kind"] for h in resumed.provenance["cache_hits"]] == [
            "run_result"
        ]

    @pytest.mark.parametrize("workload", sorted(TRACE_PARITY_SPECS))
    def test_tracing_never_changes_a_result(self, workload):
        # Tracing is measurement, never behaviour: fresh sessions with
        # and without a tracer serialize byte-identical metrics.
        spec = TRACE_PARITY_SPECS[workload]
        with Session() as session:
            untraced = session.run(spec)
        with Session(trace=Tracer()) as session:
            traced = session.run(spec)
        assert traced.provenance["workers"] == 2
        blob = lambda r: json.dumps(r.metrics, sort_keys=True).encode()
        assert blob(traced) == blob(untraced)

    def test_trace_spec_validation(self):
        # Tracing is a Session switch, never a spec field.
        with pytest.raises(SpecError, match="execution.trace"):
            ExperimentSpec.from_dict(
                {**TINY, "execution": {"trace": {"enabled": True}}}
            )

    def test_session_trace_rejects_other_forms(self):
        with pytest.raises(TypeError, match="None, a path or a Tracer"):
            Session(trace=True)


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
        assert _job_names(left) == ["_sweep_strategy_job"] * 2
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
        # There is one detail level: every traced run records its ticks.
        sink = tmp_path / "summary.jsonl"
        with Session(trace=sink) as session:
            session.run(ExperimentSpec.from_dict(SERVE_TINY))
        records = read_trace(sink)
        names = _span_names(records)
        assert "serve.tick" in names
        assert "session.run" in names
        assert _counters(records)["serve.ticks"] == 4

    def test_sharded_serve_replicas_follow_summary_detail(self, tmp_path):
        # Replica workers' per-tick spans come home with their results.
        sink = tmp_path / "summary-sharded.jsonl"
        spec = ExperimentSpec.from_dict(
            {
                **SERVE_TINY,
                "execution": {**SERVE_TINY["execution"], "workers": 2},
            }
        )
        with Session(trace=sink) as session:
            session.run(spec)
        records = read_trace(sink)
        assert "serve.tick" in _span_names(records)
        assert _job_names(records) == ["_serve_partition"] * 2
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
                    shards=Shards(executor, session.transport(), 2),
                )
            assert executor.unmerged_jobs == 0
        records = tracer.to_records()
        assert _job_names(records) == ["_execute_shard"] * 2
        return deterministic_bytes(records)

    def test_traced_sharded_evaluate_is_deterministic(self):
        first = self._traced_evaluate()
        assert first == self._traced_evaluate()
        assert b"executor.job" in first
