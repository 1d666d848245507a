"""``repro.obs`` — unified tracing & metrics beside the stack.

A process-local :class:`Tracer` collects structured spans, counters and
gauges from every instrumented layer (engine, training, serve, store,
transport, executors) with a strict two-plane design: the
*deterministic plane* (names, hierarchy, ids, byte counts — byte-stable
across identical runs) and the *wall plane* (monotonic durations, RSS)
confined under each record's ``"wall"`` key and to the
:mod:`repro.obs.wall` clock seam.  See ``docs/observability.md``.

Like the lint package, obs sits beside the stack: layers reach it only
through :func:`current_tracer` at their instrumented seams and run
untouched (one global read) when tracing is off.
"""

from repro.obs.export import (
    TraceFormatError,
    deterministic_bytes,
    deterministic_plane,
    perfetto_events,
    read_trace,
    summarize,
)
from repro.obs.capture import capture_job
from repro.obs.tracer import (
    DEFAULT_MAX_SPANS,
    TRACE_FORMAT_VERSION,
    SpanRecord,
    Tracer,
    current_tracer,
    finish_wall,
    install_tracer,
)

__all__ = [
    "DEFAULT_MAX_SPANS",
    "TRACE_FORMAT_VERSION",
    "SpanRecord",
    "Tracer",
    "TraceFormatError",
    "capture_job",
    "current_tracer",
    "deterministic_bytes",
    "deterministic_plane",
    "finish_wall",
    "install_tracer",
    "perfetto_events",
    "read_trace",
    "summarize",
]
