"""The process-local tracer: structured spans + counters, two planes.

One :class:`Tracer` accumulates everything one traced run observed:

* **spans** — named, hierarchical (parent ids), each carrying a
  *deterministic* attribute dict (sequence/epoch/tick/client ids, byte
  counts, hit/miss flags — values that are a pure function of the spec)
  and a *wall* dict (monotonic start/duration, RSS snapshot) that is
  explicitly non-deterministic measurement payload;
* **counters** — monotonic named totals (cache hits, shed frames,
  dropped spans), folded into one sorted table at export;
* **gauges** — ordered samples of a named series (queue depth per
  tick), deterministic like counters.

The two-plane rule is structural, not conventional: every record stores
its wall measurements under the single ``"wall"`` key, all wall reads go
through :mod:`repro.obs.wall` (REP108 enforces this), and the exported
JSONL sorts keys — so two identical runs produce byte-identical files
once the ``"wall"`` values are stripped, which the determinism tests pin.

Instrumented seams reach the tracer ambiently via :func:`current_tracer`
(``None`` when tracing is off — the zero-overhead fast path is a single
global read).  The ambient tracer is pinned to the installing process
*and thread*: a fork-pool worker or a thread-pool job sees ``None``
instead of interleaving spans nondeterministically — cross-process spans
travel home with each job's result (:mod:`repro.obs.capture`) instead.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.obs.wall import rss_kb, wall_now

__all__ = [
    "TRACE_FORMAT_VERSION",
    "SpanRecord",
    "Tracer",
    "current_tracer",
    "install_tracer",
    "finish_wall",
]

#: Version of the JSONL trace record schema.  Bump on any incompatible
#: change; ``repro trace`` refuses files from a different version rather
#: than misreading them.
TRACE_FORMAT_VERSION = 1

#: Span-count safety cap: a runaway instrumentation loop degrades into
#: a counted ``spans_dropped`` instead of unbounded memory growth.
DEFAULT_MAX_SPANS = 200_000


@dataclass
class SpanRecord:
    """One span: deterministic identity/attrs plus wall measurements."""

    id: int
    parent: int | None
    name: str
    #: Deterministic plane: a pure function of spec + code.
    attrs: dict = field(default_factory=dict)
    #: Wall plane: opaque measurement payload, stripped for byte
    #: comparisons.  Never branch on these values.
    wall: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "type": "span",
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "attrs": self.attrs,
            "wall": self.wall,
        }


def finish_wall(record: SpanRecord) -> None:
    """Close a span's wall duration in place.

    Touches *only* the wall dict, so completion callbacks running on
    pool threads (whose ordering is nondeterministic) can never perturb
    the deterministic plane — the span's identity, position and attrs
    were fixed when it was opened.
    """
    start = record.wall.get("start_s")
    if start is not None and "dur_s" not in record.wall:
        record.wall["dur_s"] = wall_now() - start


class Tracer:
    """Accumulates one run's spans/counters/gauges; exports JSONL."""

    def __init__(
        self,
        origin: str = "main",
        max_spans: int = DEFAULT_MAX_SPANS,
    ):
        self.origin = origin
        self.max_spans = max_spans
        self.spans: list[SpanRecord] = []
        self.counters: dict[str, float] = {}
        self.gauges: list[dict] = []
        self.dropped = 0
        self._next_id = 1
        self._stack: list[int] = []

    # -- emission -------------------------------------------------------------
    def _open(
        self, name: str, parent: int | None, attrs: dict
    ) -> SpanRecord | None:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return None
        record = SpanRecord(
            id=self._next_id,
            parent=parent,
            name=name,
            attrs=attrs,
            wall={"start_s": wall_now(), "rss_kb": rss_kb()},
        )
        self._next_id += 1
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SpanRecord | None]:
        """Open a child span of the innermost open span; closes on exit."""
        parent = self._stack[-1] if self._stack else None
        record = self._open(name, parent, attrs)
        if record is None:
            yield None
            return
        self._stack.append(record.id)
        try:
            yield record
        finally:
            self._stack.pop()
            finish_wall(record)

    def point(
        self,
        name: str,
        parent: int | None | SpanRecord = None,
        wall_dur: float | None = None,
        **attrs: Any,
    ) -> SpanRecord | None:
        """Emit an already-complete span (a measurement view).

        Used where the measurement exists before the span does — stage
        timings accumulated by the engine, executor jobs whose wall
        completion arrives later via :func:`finish_wall`.  ``parent``
        defaults to the innermost open span.
        """
        if isinstance(parent, SpanRecord):
            parent = parent.id
        if parent is None and self._stack:
            parent = self._stack[-1]
        record = self._open(name, parent, attrs)
        if record is not None and wall_dur is not None:
            record.wall["dur_s"] = wall_dur
        return record

    def count(self, name: str, value: float = 1) -> None:
        """Bump a named counter (deterministic plane)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float, **attrs: Any) -> None:
        """Append one sample of a named series (deterministic plane)."""
        self.gauges.append(
            {"type": "gauge", "name": name, "value": value, "attrs": attrs}
        )

    # -- cross-process merge ---------------------------------------------------
    def merge_records(
        self, records: list[dict], parent: int | None | SpanRecord = None
    ) -> int:
        """Fold a worker capture in (see :mod:`repro.obs.capture`).

        Span ids are remapped into this tracer's sequence; captured root
        spans re-parent under ``parent`` (the dispatcher-side executor
        job span), so the cross-process trace reads as one tree.  Caller
        supplies captures in a deterministic order (job submission
        order); within a capture, record order is preserved.
        Returns the number of spans merged.
        """
        if isinstance(parent, SpanRecord):
            parent = parent.id
        id_map: dict[int, int] = {}
        merged = 0
        for record in records:
            kind = record.get("type")
            if kind == "span":
                if len(self.spans) >= self.max_spans:
                    self.dropped += 1
                    continue
                old_parent = record.get("parent")
                new = SpanRecord(
                    id=self._next_id,
                    parent=(
                        id_map.get(old_parent, parent)
                        if old_parent is not None
                        else parent
                    ),
                    name=record["name"],
                    attrs=dict(record.get("attrs", {})),
                    wall=dict(record.get("wall", {})),
                )
                self._next_id += 1
                id_map[record["id"]] = new.id
                self.spans.append(new)
                merged += 1
            elif kind == "counter":
                self.count(record["name"], record["value"])
            elif kind == "gauge":
                self.gauges.append(
                    {
                        "type": "gauge",
                        "name": record["name"],
                        "value": record["value"],
                        "attrs": dict(record.get("attrs", {})),
                    }
                )
            elif kind == "meta":
                self.dropped += int(record.get("spans_dropped", 0))
        return merged

    # -- export ----------------------------------------------------------------
    def to_records(self) -> list[dict]:
        """The full JSONL record stream (meta, spans, gauges, counters).

        Deterministic ordering throughout: spans in emission order,
        gauges in sample order, counters sorted by name (REP104 — the
        table must not depend on increment order).
        """
        records: list[dict] = [
            {
                "type": "meta",
                "format": TRACE_FORMAT_VERSION,
                "origin": self.origin,
                "spans": len(self.spans),
                "spans_dropped": self.dropped,
            }
        ]
        records.extend(span.to_record() for span in self.spans)
        records.extend(self.gauges)
        records.extend(
            {"type": "counter", "name": name, "value": value}
            for name, value in sorted(self.counters.items())
        )
        return records

    def write_jsonl(self, path: str | Path) -> int:
        """Write the versioned JSONL trace; returns bytes written."""
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        lines = [
            json.dumps(record, sort_keys=True) for record in self.to_records()
        ]
        data = ("\n".join(lines) + "\n").encode()
        path.write_bytes(data)
        return len(data)


# -- the ambient tracer --------------------------------------------------------
_CURRENT: Tracer | None = None
#: (pid, thread ident) that installed the tracer: fork-pool children and
#: sibling threads read ``None`` instead of racing the span stack.
_OWNER: tuple[int, int] | None = None


def current_tracer() -> Tracer | None:
    """The installed tracer, or ``None`` (tracing off / wrong context).

    Returns ``None`` in any process or thread other than the installer's
    — span emission from shard workers must travel home with the job's
    result (:mod:`repro.obs.capture`), never the ambient global.
    """
    if _CURRENT is None:
        return None
    if (os.getpid(), threading.get_ident()) != _OWNER:
        return None
    return _CURRENT


@contextmanager
def install_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Make ``tracer`` ambient for the calling thread; restores on exit."""
    global _CURRENT, _OWNER
    previous = (_CURRENT, _OWNER)
    _CURRENT = tracer
    _OWNER = (os.getpid(), threading.get_ident())
    try:
        yield tracer
    finally:
        _CURRENT, _OWNER = previous
