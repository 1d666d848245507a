"""Tracer unit behaviour: spans, planes, merge, the ambient guard."""

import threading

import pytest

from repro.obs import (
    TRACE_FORMAT_VERSION,
    SpanRecord,
    Tracer,
    capture_job,
    current_tracer,
    finish_wall,
    install_tracer,
    read_trace,
)


class TestSpans:
    def test_span_nesting_sets_parents(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.parent is None
        assert inner.parent == outer.id
        assert [s.name for s in tracer.spans] == ["outer", "inner"]

    def test_point_defaults_to_innermost_open_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            view = tracer.point("view", wall_dur=0.25, stage="warp")
        assert view.parent == outer.id
        assert view.attrs == {"stage": "warp"}
        assert view.wall["dur_s"] == 0.25

    def test_point_accepts_span_record_parent(self):
        tracer = Tracer()
        anchor = tracer.point("anchor")
        child = tracer.point("child", parent=anchor)
        assert child.parent == anchor.id

    def test_max_spans_cap_counts_drops(self):
        tracer = Tracer(max_spans=2)
        assert tracer.point("a") is not None
        assert tracer.point("b") is not None
        assert tracer.point("c") is None
        assert tracer.point("d") is None
        assert tracer.dropped == 2
        # The span contextmanager degrades to a no-op, not a crash.
        with tracer.span("e") as record:
            assert record is None
        assert tracer.dropped == 3

    def test_finish_wall_touches_only_the_wall_dict(self):
        record = SpanRecord(
            id=1, parent=None, name="x", attrs={"k": 1},
            wall={"start_s": 0.0},
        )
        finish_wall(record)
        assert "dur_s" in record.wall
        assert record.attrs == {"k": 1}
        # Idempotent: a second finish must not rewrite the duration.
        dur = record.wall["dur_s"]
        finish_wall(record)
        assert record.wall["dur_s"] == dur


class TestCountersAndGauges:
    def test_counters_fold_and_export_sorted(self):
        tracer = Tracer()
        tracer.count("z.thing")
        tracer.count("a.thing", 2)
        tracer.count("z.thing", 3)
        records = tracer.to_records()
        counters = [r for r in records if r["type"] == "counter"]
        assert counters == [
            {"type": "counter", "name": "a.thing", "value": 2},
            {"type": "counter", "name": "z.thing", "value": 4},
        ]

    def test_gauges_keep_sample_order(self):
        tracer = Tracer()
        tracer.gauge("depth", 3, tick=0)
        tracer.gauge("depth", 1, tick=1)
        gauges = [r for r in tracer.to_records() if r["type"] == "gauge"]
        assert [g["value"] for g in gauges] == [3, 1]
        assert [g["attrs"]["tick"] for g in gauges] == [0, 1]


class TestMerge:
    def _capture(self):
        worker = Tracer(origin="worker-test")
        with worker.span("job.outer"):
            with worker.span("job.inner"):
                pass
        worker.count("jobs.done", 1)
        worker.gauge("job.depth", 2)
        return worker.to_records()

    def test_merge_remaps_ids_and_reparents_roots(self):
        main = Tracer()
        anchor = main.point("executor.job", seq=0)
        merged = main.merge_records(self._capture(), parent=anchor)
        assert merged == 2
        outer, inner = main.spans[1], main.spans[2]
        assert outer.name == "job.outer" and outer.parent == anchor.id
        assert inner.name == "job.inner" and inner.parent == outer.id
        # Remapped ids continue the main tracer's sequence, no collisions.
        assert len({s.id for s in main.spans}) == 3

    def test_merge_folds_counters_gauges_and_drops(self):
        main = Tracer()
        main.count("jobs.done", 1)
        capture = self._capture()
        capture[0]["spans_dropped"] = 5  # worker hit its cap
        main.merge_records(capture, parent=None)
        assert main.counters["jobs.done"] == 2
        assert [g["name"] for g in main.gauges] == ["job.depth"]
        assert main.dropped == 5


class TestAmbientGuard:
    def test_install_and_restore(self):
        assert current_tracer() is None
        tracer = Tracer()
        with install_tracer(tracer):
            assert current_tracer() is tracer
            nested = Tracer()
            with install_tracer(nested):
                assert current_tracer() is nested
            assert current_tracer() is tracer
        assert current_tracer() is None

    def test_sibling_thread_sees_none(self):
        seen = []
        with install_tracer(Tracer()):
            thread = threading.Thread(
                target=lambda: seen.append(current_tracer())
            )
            thread.start()
            thread.join()
        assert seen == [None]


class TestJsonlRoundtrip:
    def test_write_read_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("run", workload="evaluate"):
            tracer.count("frames", 7)
        path = tmp_path / "sub" / "trace.jsonl"
        nbytes = tracer.write_jsonl(path)
        assert nbytes == path.stat().st_size
        records = read_trace(path)
        assert records[0]["type"] == "meta"
        assert records[0]["format"] == TRACE_FORMAT_VERSION
        assert records[0]["spans"] == 1
        names = [r["name"] for r in records if r["type"] == "span"]
        assert names == ["run"]


def _captured_job(x, y=1):
    tracer = current_tracer()
    assert tracer is not None, "capture tracer must be ambient in the job"
    with tracer.span("job.work", x=x):
        pass
    return x + y


def _failing_job():
    tracer = current_tracer()
    tracer.point("job.before_failure")
    raise RuntimeError("boom")


class TestCapture:
    def test_capture_job_returns_result_and_records(self):
        result, records = capture_job(_captured_job, (2,), {"y": 3})
        assert result == 5
        assert records[0]["type"] == "meta"
        assert [r["name"] for r in records if r["type"] == "span"] == [
            "job.work"
        ]
        # The capture never leaks into this process's ambient slot.
        assert current_tracer() is None

    def test_capture_job_keeps_partial_spans_on_failure(self):
        with pytest.raises(RuntimeError, match="boom") as info:
            capture_job(_failing_job, (), {})
        names = [
            r["name"]
            for r in info.value.trace_records
            if r["type"] == "span"
        ]
        assert names == ["job.before_failure"]
