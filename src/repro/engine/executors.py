"""The process pool and the one fan-out every sharded path goes through.

Every sharded path in the repository (engine sequence-rank sharding,
strategy-sweep fan-out, serve scheduler replicas) is one
:meth:`Shards.map` call: a :class:`Shards` handle bundles the pool, the
:class:`~repro.engine.transport.TransportChannel` its payloads travel
on, and the worker count, and refuses at construction any combination
that could not shard.  ``repro.api.Session.executor(n)`` and
``Session.transport()`` supply both halves.  ``map`` publishes the
shared payload once and each part on the channel, submits one
module-level worker entry per part, and returns the results in part
order.  The executor is a :class:`ProcessPoolBackend`, a fork-context
process pool.

Tracing crosses the process boundary with the results.  When a tracer
is installed at ``submit``, the job runs in the worker under
:func:`repro.obs.capture_job`, which returns the job's span records
with its result; the returned future merges them under the submit-side
``executor.job`` span (named after the site's job, not the shared
entry) when its ``result()`` is consumed.  ``Shards.map`` consumes every
future in submission order, also after a job failed, so the merged
trace is deterministic however the workers interleaved and no worker's
spans are dropped.  Untraced submits hand the job function to the pool
unchanged.

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
from dataclasses import dataclass
from typing import Any, Callable

from repro.engine.transport import TransportChannel, resolve_payload
from repro.obs.capture import capture_job
from repro.obs.tracer import SpanRecord, Tracer, current_tracer, finish_wall

__all__ = ["ProcessPoolBackend", "Shards"]


@dataclass(frozen=True)
class Shards:
    """Where sharded work runs: a pool, the channel its payloads travel
    on, and how many parts to cut.

    ``repro.api.Session.executor(n)`` and ``Session.transport()`` are
    the one way to get both halves.  Construction refuses what could not
    shard: ``workers < 2`` would run in-process and silently ignore the
    pool, and sharding needs both a pool and a
    :class:`~repro.engine.transport.TransportChannel`.
    """

    executor: Any
    channel: TransportChannel
    workers: int

    def __post_init__(self) -> None:
        if self.workers < 2:
            raise ValueError(
                f"workers={self.workers} would run in-process and silently "
                "ignore the executor; pass workers >= 2 to shard"
            )
        if self.executor is None or not isinstance(
            self.channel, TransportChannel
        ):
            raise ValueError(
                f"workers={self.workers} shards, which needs an executor and "
                "a transport channel: pass Session.executor(n) and "
                "Session.transport()"
            )

    def map(self, job: Callable, shared: Any, parts: list) -> list:
        """``[job(shared, part) for part in parts]``, one pool job per part.

        ``job`` must be a module-level function (it pickles by name).
        ``shared`` is published once and each part on its own; every
        dispatch carries the two handles, and the channel's
        ``dispatches`` and ``dispatch_bytes`` stats count what crossed.
        Each part is submitted as soon as it is published, so a worker
        starts while the parent still writes the next part's segments.
        Every future is consumed, also after a failure, so no job is left
        running unseen and every traced job's spans merge; then the first
        failure re-raises.
        """
        if not parts:
            return []
        channel, stats = self.channel, self.channel.stats
        futures, failure = [], None
        try:
            shared_handle = channel.publish(shared)
            for part in parts:
                handle = channel.publish(part)
                futures.append(
                    self.executor.submit(
                        _shard_worker, job, shared_handle, handle
                    )
                )
                stats["dispatches"] += 1
                stats["dispatch_bytes"] += (
                    shared_handle.wire_bytes + handle.wire_bytes
                )
        except Exception as exc:
            failure = exc
        results = []
        for future in futures:
            try:
                results.append(future.result())
            except Exception as exc:
                failure = failure or exc
        if failure is not None:
            raise failure
        return results


def _shard_worker(job: Callable, shared_handle, part_handle) -> Any:
    """Worker-side entry of :meth:`Shards.map`: resolve both handles,
    then run the job.

    Payloads resolve through the worker's digest-keyed cache
    (:func:`~repro.engine.transport.resolve_payload`): big arrays map
    read-only from shared memory, and a payload already resolved in this
    process is not deserialized again.
    """
    return job(resolve_payload(shared_handle), resolve_payload(part_handle))


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
            # A shard dispatch is named after the site's job.
            job=_job_name(args[0] if fn is _shard_worker else fn),
        )
        future = self._pool.submit(capture_job, fn, args, kwargs)
        if span is not None:
            future.add_done_callback(lambda _f: finish_wall(span))
        self.unmerged_jobs += 1
        return _TracedFuture(self, future, tracer, span)

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)
