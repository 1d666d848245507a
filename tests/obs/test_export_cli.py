"""Trace exporters and the ``repro trace`` CLI surface."""

import json

import pytest

from repro.obs import (
    TraceFormatError,
    Tracer,
    deterministic_bytes,
    deterministic_plane,
    perfetto_events,
    read_trace,
    summarize,
)
from repro.obs.cli import main as trace_main


def _sample_tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("session.run", workload="evaluate"):
        with tracer.span("engine.run", frames=6):
            tracer.point("engine.stage", wall_dur=0.5, stage="warp")
        tracer.count("engine.frames", 6)
        tracer.gauge("serve.queue_depth", 2, tick=0)
    return tracer


class TestDeterministicPlane:
    def test_strips_only_the_wall_key(self):
        records = _sample_tracer().to_records()
        plane = deterministic_plane(records)
        assert all("wall" not in record for record in plane)
        spans = [r for r in plane if r["type"] == "span"]
        assert {"id", "parent", "name", "attrs"} <= set(spans[0])

    def test_bytes_ignore_wall_values(self):
        left, right = _sample_tracer(), _sample_tracer()
        # Perturb the wall plane only: bytes must not move.
        for span in right.spans:
            span.wall["start_s"] = 123456.789
            span.wall["rss_kb"] = 999999
        assert deterministic_bytes(left.to_records()) == deterministic_bytes(
            right.to_records()
        )

    def test_bytes_see_attr_drift(self):
        left, right = _sample_tracer(), _sample_tracer()
        right.spans[1].attrs["frames"] = 7
        assert deterministic_bytes(left.to_records()) != deterministic_bytes(
            right.to_records()
        )


class TestReadTrace:
    def test_rejects_missing_meta(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span", "id": 1}\n')
        with pytest.raises(TraceFormatError, match="meta"):
            read_trace(path)

    def test_rejects_other_format_versions(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text('{"type": "meta", "format": 99}\n')
        with pytest.raises(TraceFormatError, match="format"):
            read_trace(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceFormatError, match="invalid"):
            read_trace(path)


class TestPerfetto:
    def test_spans_become_complete_events(self):
        payload = perfetto_events(_sample_tracer().to_records())
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        gauges = [e for e in payload["traceEvents"] if e["ph"] == "C"]
        assert {e["name"] for e in spans} == {
            "session.run", "engine.run", "engine.stage",
        }
        assert len(gauges) == 1
        stage = next(e for e in spans if e["name"] == "engine.stage")
        assert stage["dur"] == pytest.approx(0.5e6)
        assert stage["args"]["stage"] == "warp"
        assert "span_id" in stage["args"]


class TestSummarize:
    def test_rollup_counts_and_ordering(self):
        report = summarize(_sample_tracer().to_records(), top=2)
        assert report["spans_total"] == 3
        assert report["span_names"] == 3
        assert len(report["spans"]) == 2  # truncated to top
        assert report["counters"] == {"engine.frames": 6}
        assert report["stages"] == {
            "warp": {"count": 1, "wall_s": 0.5, "frames": 0, "calls": 0},
        }
        assert report["gauges"]["serve.queue_depth"] == {
            "samples": 1, "min": 2, "max": 2,
        }


class TestTraceCli:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _sample_tracer().write_jsonl(path)
        return path

    def test_summary_ok_and_json(self, trace_file, tmp_path, capsys):
        out = tmp_path / "summary.json"
        code = trace_main(
            ["summary", str(trace_file), "--json", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "session.run" in printed
        assert "engine stages" in printed and "warp" in printed
        report = json.loads(out.read_text())
        assert report["spans_total"] == 3

    def test_summary_unreadable_exits_2(self, tmp_path, capsys):
        assert trace_main(["summary", str(tmp_path / "nope.jsonl")]) == 2
        assert "trace error" in capsys.readouterr().err

    def test_export_perfetto(self, trace_file, tmp_path):
        out = tmp_path / "perfetto.json"
        assert trace_main(
            ["export", str(trace_file), "--perfetto", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]

    def test_diff_identical_exits_0(self, trace_file, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        tracer = _sample_tracer()
        for span in tracer.spans:  # wall drift must not count as drift
            span.wall["start_s"] = 42.0
        tracer.write_jsonl(other)
        assert trace_main(["diff", str(trace_file), str(other)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_drift_exits_1(self, trace_file, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        tracer = _sample_tracer()
        tracer.count("engine.frames", 1)  # deterministic-plane drift
        tracer.write_jsonl(other)
        assert trace_main(["diff", str(trace_file), str(other)]) == 1
        assert "differ" in capsys.readouterr().out

    def test_usage_error_exits_2(self):
        assert trace_main(["summary"]) == 2
