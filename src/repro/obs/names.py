"""The counter/gauge name registry: one table, no drift.

Every counter or gauge an instrumented seam emits is named here, and the
workload metrics blocks that report the same quantity derive their field
names from the same constants — so ``repro trace summary`` and a
``RunResult``'s metrics can never disagree about what a number is
called.  ``docs/observability.md`` renders this table.
"""

from __future__ import annotations

__all__ = [
    "SERVE_QUEUE_DEPTH",
    "QUEUE_DEPTH_FIELDS",
    "serve_queue_depth_gauge",
    "COUNTER_REGISTRY",
]

#: The serve scheduler's per-tick queue-depth series (one gauge sample
#: per tick — the trace counterpart of the telemetry block's
#: ``queue_depth.trace`` list).
SERVE_QUEUE_DEPTH = "serve.queue_depth"

#: Fields of the telemetry summary's ``queue_depth`` block, in report
#: order.  ``Telemetry.summary`` builds its dict from this tuple and the
#: serve workload emits one ``serve.queue_depth.<field>`` gauge per
#: scalar field — the satellite-2 "one naming table" contract.
QUEUE_DEPTH_FIELDS = ("max", "mean", "trace")


def serve_queue_depth_gauge(field: str) -> str:
    """The exported gauge name of one ``queue_depth`` summary field."""
    return f"{SERVE_QUEUE_DEPTH}.{field}"


#: name -> meaning of every counter the instrumented seams emit.
#: (Spans are taxonomized in docs/observability.md; counters are flat
#: and live here so the CLI's counter table can annotate them.)
COUNTER_REGISTRY = {
    # engine
    "engine.runs": "SequenceRunner.run invocations",
    "engine.frames": "frame contexts executed (all stages)",
    # training
    "train.epochs": "training epochs executed (joint + per-strategy)",
    # serve
    "serve.ticks": "scheduler virtual-clock ticks",
    "serve.admitted": "frames admitted to the queue",
    "serve.shed.queue_full": "arrivals dropped by admission control",
    "serve.shed.deadline": "queued frames shed as doomed",
    "serve.dispatched": "frames dispatched in micro-batches",
    # store
    "store.puts": "artifact-store writes",
    "store.gets": "artifact-store lookups",
    "store.hits": "artifact-store lookup hits",
    "store.misses": "artifact-store lookup misses",
    "store.put_bytes": "payload bytes written to the store",
    "store.gc_evicted": "entries evicted by gc",
    # transport
    "transport.publishes": "payloads published to the transport channel",
    "transport.publish_reuses": "publishes deduplicated by content digest",
    "transport.publish_bytes": "payload bytes published (pre-dedup)",
    # executors
    "executor.jobs": "jobs submitted to the process pool",
    "executor.worker_spans_merged": "worker-captured spans merged in",
    # session
    "session.cache_hits": "trainings replayed from memo or store",
}
