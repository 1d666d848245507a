"""The process pool every sharded path dispatches through.

Every sharded path in the repository (engine sequence-rank sharding,
strategy-sweep fan-out, serve scheduler replicas) dispatches
module-level jobs through a single seam: ``executor.submit(job,
*args)`` with results collected in fixed futures order, the payloads
travelling as handles on a caller-owned
:class:`~repro.engine.transport.TransportChannel`.  There is one way to
get both: ``repro.api.Session.executor(n)`` and ``Session.transport()``;
:func:`check_dispatch` is the precondition every sharded entry point
runs.  The executor is a :class:`ProcessPoolBackend`, a fork-context
process pool.

Tracing crosses the process boundary with the results.  When a tracer
is installed at ``submit``, the job runs in the worker under
:func:`repro.obs.capture_job`, which returns the job's span records
with its result; the returned future merges them under the submit-side
``executor.job`` span when its ``result()`` is consumed.  Every caller
consumes futures in submission order, so the merged trace is
deterministic however the workers interleaved.  Untraced submits hand
the job function to the pool unchanged.

Determinism: sharded runs execute the same module-level job functions
on the same payloads and results are consumed in submission order, so
any job set whose jobs are independent (the repository's invariant —
per-sequence RNG streams, no cross-shard state) produces bitwise
identical merged results to the serial run.  ``tests/engine/
test_executors.py`` pins this.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable

from repro.engine.transport import TransportChannel
from repro.obs.capture import capture_job
from repro.obs.tracer import SpanRecord, Tracer, current_tracer, finish_wall

__all__ = ["ProcessPoolBackend", "check_dispatch"]


def check_dispatch(workers: int | None, executor: Any, transport: Any) -> int:
    """The precondition of every sharded entry point; returns the
    requested worker count (``None`` -> 1).

    ``workers >= 2`` shards, which needs both a caller-owned executor
    and a :class:`~repro.engine.transport.TransportChannel` —
    ``repro.api.Session.executor(n)`` and ``Session.transport()``.  An
    executor with ``workers < 2`` would be silently ignored by the
    in-process loop, so it is refused too.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    n_workers = workers or 1
    if n_workers >= 2 and (
        executor is None or not isinstance(transport, TransportChannel)
    ):
        raise ValueError(
            f"workers={n_workers} shards, which needs an executor and a "
            "transport channel: pass executor=Session.executor(n) and "
            "transport=Session.transport()"
        )
    if executor is not None and n_workers < 2:
        raise ValueError(
            "executor was injected but workers < 2 would run in-process "
            "and silently ignore it; pass workers >= 2 to shard"
        )
    return n_workers


def _pool_context():
    """Prefer fork (inherits the warm interpreter; cheap at CI scale)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix platforms
        return multiprocessing.get_context()


def _job_name(fn: Callable) -> str:
    """Deterministic display name of a submitted job function."""
    return getattr(fn, "__qualname__", None) or getattr(
        fn, "__name__", type(fn).__name__
    )


class _TracedFuture:
    """A traced job's future: ``result()`` merges the worker's spans.

    The merge runs once, in the consuming thread, under the job's
    submit-side ``executor.job`` span.  A failed job's partial spans
    are merged before its exception re-raises; pool failures (a dead
    worker) carry no spans and re-raise as they are.
    """

    def __init__(
        self,
        backend: "ProcessPoolBackend",
        future: Future,
        tracer: Tracer,
        span: SpanRecord | None,
    ):
        self._backend = backend
        self._future = future
        self._tracer = tracer
        self._span = span
        self._merged = False

    def result(self, timeout: float | None = None) -> Any:
        try:
            value, records = self._future.result(timeout)
        except BaseException as exc:
            if self._future.done():
                self._merge(exc.__dict__.pop("trace_records", []))
            raise
        self._merge(records)
        return value

    def _merge(self, records: list[dict]) -> None:
        if self._merged:
            return
        self._merged = True
        self._backend.unmerged_jobs -= 1
        merged = self._tracer.merge_records(records, parent=self._span)
        if merged:
            self._tracer.count("executor.worker_spans_merged", merged)


class ProcessPoolBackend:
    """A fork-context process pool; shard payloads cross as handles on
    the caller's transport channel.

    ``max_workers`` is the parallelism the pool was built for (the
    shard-cut width callers size against).  After ``shutdown`` every
    ``submit`` raises ``RuntimeError``, so a caller holding a stale pool
    fails loudly instead of silently re-forking.
    """

    def __init__(self, max_workers: int):
        self.max_workers = int(max_workers)
        self._pool = ProcessPoolExecutor(
            max_workers=self.max_workers, mp_context=_pool_context()
        )
        #: Traced jobs whose worker spans have not been merged yet (their
        #: futures' results are still unconsumed).
        self.unmerged_jobs = 0

    @property
    def broken(self) -> bool:
        """Whether a worker died and broke the pool: every later submit
        would raise ``BrokenProcessPool``.  The pool marks itself broken
        before it fails the pending futures, so a caller that has seen
        ``BrokenProcessPool`` from ``result()`` already reads ``True``."""
        return bool(self._pool._broken)

    def submit(self, fn: Callable, /, *args: Any, **kwargs: Any):
        tracer = current_tracer()
        if tracer is None:
            return self._pool.submit(fn, *args, **kwargs)
        # The deterministic plane (job ordinal within this trace, job
        # name) is complete at submit; the wall duration arrives with a
        # done-callback, which touches only the wall plane.
        tracer.count("executor.jobs")
        span = tracer.point(
            "executor.job",
            seq=int(tracer.counters["executor.jobs"]),
            job=_job_name(fn),
        )
        future = self._pool.submit(capture_job, fn, args, kwargs)
        if span is not None:
            future.add_done_callback(lambda _f: finish_wall(span))
        self.unmerged_jobs += 1
        return _TracedFuture(self, future, tracer, span)

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)
