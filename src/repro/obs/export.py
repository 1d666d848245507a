"""Trace readers and exporters: JSONL in, summaries / Perfetto out.

Everything here operates on the *record stream* (the list of plain dicts
:meth:`~repro.obs.tracer.Tracer.to_records` writes), so the CLI, the
tests and programmatic consumers share one parser and one
deterministic-plane definition.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.tracer import TRACE_FORMAT_VERSION

__all__ = [
    "TraceFormatError",
    "read_trace",
    "deterministic_plane",
    "deterministic_bytes",
    "perfetto_events",
    "summarize",
]


class TraceFormatError(ValueError):
    """A trace file is unreadable or from an incompatible format."""


def read_trace(path: str | Path) -> list[dict]:
    """Parse a JSONL trace, refusing incompatible format versions."""
    path = Path(path)
    records: list[dict] = []
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace {path}: {exc}") from exc
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"{path}:{i}: invalid trace record: {exc}"
            ) from exc
    meta = records[0] if records else None
    if not isinstance(meta, dict) or meta.get("type") != "meta":
        raise TraceFormatError(
            f"{path}: not a repro trace (missing meta header)"
        )
    if meta.get("format") != TRACE_FORMAT_VERSION:
        raise TraceFormatError(
            f"{path}: trace format {meta.get('format')!r}, this tree reads "
            f"format {TRACE_FORMAT_VERSION} — re-record the trace"
        )
    return records


def deterministic_plane(records: list[dict]) -> list[dict]:
    """The byte-stable half of a trace: every record minus ``"wall"``.

    This is the *definition* the determinism tests pin: identical runs
    must produce identical streams after this projection.
    """
    return [
        {key: value for key, value in record.items() if key != "wall"}
        for record in records
    ]


def deterministic_bytes(records: list[dict]) -> bytes:
    """Canonical serialization of the deterministic plane."""
    lines = [
        json.dumps(record, sort_keys=True)
        for record in deterministic_plane(records)
    ]
    return ("\n".join(lines) + "\n").encode()


def perfetto_events(records: list[dict]) -> dict:
    """Chrome/Perfetto ``trace_event`` JSON for ``chrome://tracing``.

    Spans become complete (``"X"``) events on the wall timeline; gauges
    become counter (``"C"``) events sampled at their stream position.
    Spans without wall timestamps (merged captures from clock-skewed
    hosts always have them; dropped-cap placeholders do not exist) fall
    back to their emission index so every span stays visible.
    """
    events = []
    for index, record in enumerate(records):
        kind = record.get("type")
        if kind == "span":
            wall = record.get("wall", {})
            start = wall.get("start_s")
            ts_us = (
                start * 1e6 if start is not None else float(index)
            )
            events.append(
                {
                    "name": record["name"],
                    "ph": "X",
                    "ts": ts_us,
                    "dur": max(wall.get("dur_s", 0.0), 0.0) * 1e6,
                    "pid": wall.get("pid", 0),
                    "tid": wall.get("pid", 0),
                    "args": {
                        **record.get("attrs", {}),
                        "span_id": record["id"],
                        "parent_id": record.get("parent"),
                    },
                }
            )
        elif kind == "gauge":
            events.append(
                {
                    "name": record["name"],
                    "ph": "C",
                    "ts": float(index),
                    "pid": 0,
                    "args": {"value": record["value"]},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def summarize(records: list[dict], top: int = 10) -> dict:
    """Aggregate a trace: per-name span roll-up + counter/gauge tables.

    Spans aggregate by name (count, total/mean wall seconds — wall
    values are reported, never compared); the span table is ordered by
    total wall seconds descending (ties by name) and truncated to
    ``top``.  ``engine.stage`` spans also roll up by their ``stage``
    attr (count, wall seconds, frames, calls) in first-seen order — the
    graph order — so a sharded run's per-shard spans sum to the run's
    per-stage totals.  Counters and gauge series are complete and
    name-sorted.
    """
    meta = records[0]
    by_name: dict[str, dict] = {}
    stages: dict[str, dict] = {}
    for record in records:
        if record.get("type") != "span":
            continue
        wall_s = record.get("wall", {}).get("dur_s", 0.0) or 0.0
        entry = by_name.setdefault(
            record["name"], {"count": 0, "wall_s": 0.0}
        )
        entry["count"] += 1
        entry["wall_s"] += wall_s
        if record["name"] == "engine.stage":
            attrs = record.get("attrs", {})
            stage = stages.setdefault(
                attrs["stage"],
                {"count": 0, "wall_s": 0.0, "frames": 0, "calls": 0},
            )
            stage["count"] += 1
            stage["wall_s"] += wall_s
            stage["frames"] += attrs.get("frames", 0)
            stage["calls"] += attrs.get("calls", 0)
    span_rows = [
        {
            "name": name,
            "count": entry["count"],
            "wall_s": entry["wall_s"],
            "mean_wall_s": entry["wall_s"] / entry["count"],
        }
        for name, entry in by_name.items()
    ]
    span_rows.sort(key=lambda row: (-row["wall_s"], row["name"]))
    counters = {
        record["name"]: record["value"]
        for record in records
        if record.get("type") == "counter"
    }
    gauges: dict[str, dict] = {}
    for record in records:
        if record.get("type") != "gauge":
            continue
        series = gauges.setdefault(
            record["name"], {"samples": 0, "min": None, "max": None}
        )
        series["samples"] += 1
        value = record["value"]
        series["min"] = value if series["min"] is None else min(series["min"], value)
        series["max"] = value if series["max"] is None else max(series["max"], value)
    return {
        "format": meta.get("format"),
        "origin": meta.get("origin"),
        "spans_total": sum(row["count"] for row in span_rows),
        "spans_dropped": meta.get("spans_dropped", 0),
        "span_names": len(span_rows),
        "spans": span_rows[:top],
        "stages": stages,
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
    }
