"""Executor backends behind one ``submit``-shaped protocol.

Every sharded path in the repository (engine sequence-rank sharding,
strategy-sweep fan-out, data-parallel training epochs, serve scheduler
replicas) dispatches module-level jobs through a single seam:
``executor.submit(job, *args)`` with results collected in fixed futures
order, the payloads travelling as handles on a caller-owned
:class:`~repro.engine.transport.TransportChannel`.  There is one way to
get both: ``repro.api.Session.executor(n)`` and ``Session.transport()``;
:func:`check_dispatch` is the precondition every sharded entry point
runs.  The :class:`ExecutorBackend` protocol — ``submit`` / ``map`` /
``shutdown`` / ``max_workers`` — has two backends:

* :class:`ProcessPoolBackend` — the production backend: a
  :func:`shard_executor` process pool (fork context).
* :class:`FileQueueBackend` — jobs round-trip through *spooled files*:
  ``submit`` pickles ``(fn, args, kwargs, traced)`` to a job file in a
  spool directory, detached worker processes claim job files by atomic
  rename, execute, and publish result files the future polls for.  The
  minimal "external cluster" stand-in: nothing crosses except bytes on
  a filesystem, which *proves* every shard job is self-contained — and
  its claim/execute/publish loop is exactly the seam a real scheduler
  backend (SLURM/SGE submit scripts, a distributed queue) plugs into
  later.

Determinism: all backends execute the same module-level job functions
on the same payloads and results are consumed in submission order, so
any job set whose jobs are independent (the repository's invariant —
per-sequence RNG streams, no cross-shard state) produces bitwise
identical merged results on every backend.  ``tests/engine/
test_executors.py`` pins both against the serial run.

Backends are selected declaratively via the spec field
``execution.backend`` (see ``docs/api.md``); ``backend: "in_process"``
names no backend — the session hands out no executor and the caller
runs its unsharded loop.  ``repro.api.Session`` caches one live backend
per kind, grow-only.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import shutil
import tempfile
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Callable, Iterable, Protocol, runtime_checkable

from repro.engine.transport import TransportChannel
from repro.obs.tracer import SpanRecord, current_tracer, finish_wall

__all__ = [
    "ExecutorBackend",
    "ProcessPoolBackend",
    "FileQueueBackend",
    "FileQueueJobError",
    "EXECUTOR_BACKENDS",
    "make_executor",
    "check_dispatch",
    "SPOOL_PREFIX",
]

#: File-queue spool directories carry this prefix (leak checks mirror
#: the transport layer's ``/dev/shm`` convention).
SPOOL_PREFIX = "reproq_"


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


def shard_executor(max_workers: int) -> ProcessPoolExecutor:
    """The fork-context process pool behind :class:`ProcessPoolBackend`."""
    return ProcessPoolExecutor(
        max_workers=max_workers, mp_context=_pool_context()
    )


def _job_name(fn: Callable) -> str:
    """Deterministic display name of a submitted job function."""
    return getattr(fn, "__qualname__", None) or getattr(
        fn, "__name__", type(fn).__name__
    )


def _open_job_span(backend: str, seq: int, fn: Callable) -> SpanRecord | None:
    """Emit the submit-side ``executor.job`` span (all backends).

    The deterministic plane (backend, sequence number, job name) is
    complete at submit; wall completion arrives later — a done-callback
    :func:`finish_wall` for pool backends, the worker capture's own root
    span for file-queue jobs.
    """
    tracer = current_tracer()
    if tracer is None:
        return None
    tracer.count("executor.jobs")
    return tracer.point(
        "executor.job", backend=backend, seq=seq, job=_job_name(fn)
    )


@runtime_checkable
class ExecutorBackend(Protocol):
    """The executor seam every sharded path dispatches through.

    ``max_workers`` is the parallelism the backend was built for (the
    shard-cut width callers size against); ``submit`` returns a future
    whose ``result()`` blocks; ``map`` applies a function over iterables
    in order; ``shutdown(wait=True)`` drains in-flight work before
    releasing resources.  After ``shutdown`` every ``submit`` raises
    ``RuntimeError`` — callers holding a stale backend fail loudly
    instead of silently re-forking.
    """

    max_workers: int

    def submit(self, fn: Callable, /, *args: Any, **kwargs: Any): ...

    def map(self, fn: Callable, *iterables: Iterable) -> Iterable: ...

    def shutdown(self, wait: bool = True) -> None: ...


# -- process-pool backend ------------------------------------------------------
class ProcessPoolBackend:
    """The production backend: a fork-context process pool.

    Wraps :func:`shard_executor` behind the protocol; shard payloads
    cross as handles on the caller's transport channel.
    """

    name = "process_pool"

    def __init__(self, max_workers: int):
        self.max_workers = int(max_workers)
        self._seq = 0
        self._pool = shard_executor(self.max_workers)

    def submit(self, fn: Callable, /, *args: Any, **kwargs: Any):
        self._seq += 1
        span = _open_job_span(self.name, self._seq, fn)
        future = self._pool.submit(fn, *args, **kwargs)
        if span is not None:
            # Wall-only completion: the callback thread touches nothing
            # in the deterministic plane (see finish_wall).
            future.add_done_callback(lambda _f: finish_wall(span))
        return future

    def map(self, fn: Callable, *iterables: Iterable) -> Iterable:
        return self._pool.map(fn, *iterables)

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)


# -- file-queue backend --------------------------------------------------------
class FileQueueJobError(RuntimeError):
    """A file-queue job raised in its worker; carries the traceback."""


def _file_queue_worker(
    jobs_dir: str, results_dir: str, stop_path: str, poll_s: float
) -> None:
    """Worker loop: claim job files by atomic rename, execute, publish.

    Module-level so the fork-spawned worker process has a clean entry
    point.  Claiming is ``os.rename(name.job -> name.claimed)`` — atomic
    on POSIX, so exactly one worker wins each job.  Results publish the
    same way jobs do: write-then-rename, so the dispatcher never reads a
    torn result.
    """
    jobs = Path(jobs_dir)
    results = Path(results_dir)
    stop = Path(stop_path)
    while True:
        claimed = None
        # Sorted glob (REP104): claim in submission order so a single
        # worker drains the queue FIFO.
        for job_path in sorted(jobs.glob("*.job")):
            target = job_path.with_suffix(".claimed")
            try:
                os.rename(job_path, target)
            except OSError:
                continue  # another worker won the claim
            claimed = target
            break
        if claimed is None:
            if stop.exists():
                return
            time.sleep(poll_s)  # repro: allow[REP102] queue poll backoff, not a data path
            continue
        name = claimed.stem
        try:
            fn, args, kwargs, traced = pickle.loads(claimed.read_bytes())
            if traced:
                # Spool this job's spans next to its result; the
                # dispatcher merges them on drain.  capture_job writes
                # the spool before we publish the result below, so a
                # resolved future implies its spans exist.
                from repro.obs.spool import capture_job

                result = capture_job(
                    results / f"{name}.spans", fn, args, kwargs
                )
            else:
                result = fn(*args, **kwargs)
            payload: tuple = ("ok", result)
        except BaseException as exc:  # noqa: BLE001 - shipped to dispatcher
            payload = (
                "error",
                f"{type(exc).__name__}: {exc}",
                traceback.format_exc(),
            )
        tmp = results / f".tmp-{name}"
        tmp.write_bytes(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        os.replace(tmp, results / f"{name}.result")
        claimed.unlink()


class _FileQueueFuture:
    """A future backed by a result file the worker will publish."""

    def __init__(self, path: Path, poll_s: float):
        self._path = path
        self._poll_s = poll_s
        self._payload: tuple | None = None

    def done(self) -> bool:
        return self._payload is not None or self._path.exists()

    def _load(self) -> tuple:
        if self._payload is None:
            self._payload = pickle.loads(self._path.read_bytes())
        return self._payload

    def result(self, timeout: float | None = None) -> Any:
        deadline = (
            None
            if timeout is None
            else time.monotonic() + timeout  # repro: allow[REP102] future timeout bookkeeping
        )
        while not self._path.exists():
            if deadline is not None and time.monotonic() > deadline:  # repro: allow[REP102] future timeout bookkeeping
                raise TimeoutError(f"file-queue result {self._path.name}")
            time.sleep(self._poll_s)  # repro: allow[REP102] result poll backoff, not a data path
        payload = self._load()
        if payload[0] == "ok":
            return payload[1]
        raise FileQueueJobError(f"{payload[1]}\n{payload[2]}")

    def exception(self, timeout: float | None = None):
        try:
            self.result(timeout)
        except FileQueueJobError as exc:
            return exc
        return None


class FileQueueBackend:
    """Jobs round-trip through spooled files: the external-queue stand-in.

    ``submit`` pickles the whole job to ``spool/jobs/<seq>.job`` (write
    to a temp name, atomic rename); detached fork-context worker
    processes claim jobs by rename, execute them, and publish
    ``spool/results/<seq>.result`` files the returned future polls for.
    Nothing else crosses: no inherited queue objects, no pipes — which
    is the point.  A job that runs here is *provably self-contained*
    and would run the same under any external scheduler that can move a
    file and invoke Python.

    Workers fork lazily on first submit.  ``shutdown(wait=True)`` drops
    a stop marker, lets workers drain the queue, joins them and removes
    the spool directory (``wait=False`` terminates instead).  Spool
    directories live under ``$TMPDIR`` with the :data:`SPOOL_PREFIX`
    prefix so leak checks can spot orphans, mirroring the transport
    layer's ``/dev/shm`` convention.
    """

    name = "file_queue"

    def __init__(
        self,
        max_workers: int = 1,
        root: str | Path | None = None,
        poll_s: float = 0.002,
    ):
        self.max_workers = max(1, int(max_workers))
        self._own_root = root is None
        self.root = Path(
            tempfile.mkdtemp(prefix=SPOOL_PREFIX) if root is None else root
        )
        self._jobs = self.root / "jobs"
        self._results = self.root / "results"
        self._stop = self.root / "stop"
        for path in (self._jobs, self._results):
            path.mkdir(parents=True, exist_ok=True)
        self._poll_s = poll_s
        self._procs: list = []
        self._seq = 0
        #: submit-side executor.job span per job name, for drain_spans
        #: to re-parent worker captures under.
        self._job_spans: dict[str, SpanRecord] = {}
        self._closed = False

    def _ensure_workers(self) -> None:
        if self._procs:
            return
        ctx = _pool_context()
        for _ in range(self.max_workers):
            proc = ctx.Process(
                target=_file_queue_worker,
                args=(
                    str(self._jobs),
                    str(self._results),
                    str(self._stop),
                    self._poll_s,
                ),
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)

    def submit(self, fn: Callable, /, *args: Any, **kwargs: Any):
        if self._closed:
            raise RuntimeError("cannot schedule new futures after shutdown")
        self._ensure_workers()
        self._seq += 1
        name = f"{self._seq:08d}"
        span = _open_job_span(self.name, self._seq, fn)
        if span is not None:
            self._job_spans[name] = span
        tmp = self._jobs / f".tmp-{name}"
        tmp.write_bytes(
            pickle.dumps(
                (fn, args, kwargs, span is not None),
                pickle.HIGHEST_PROTOCOL,
            )
        )
        os.replace(tmp, self._jobs / f"{name}.job")
        return _FileQueueFuture(
            self._results / f"{name}.result", self._poll_s
        )

    def map(self, fn: Callable, *iterables: Iterable) -> Iterable:
        futures = [self.submit(fn, *args) for args in zip(*iterables)]
        return [future.result() for future in futures]

    def drain_spans(self, tracer) -> int:
        """Merge spooled worker captures into ``tracer``; returns spans.

        Spools are consumed in job-sequence order (sorted names — the
        claim/race order workers ran in is irrelevant), each capture
        re-parented under its submit-side ``executor.job`` span, so the
        merged trace is deterministic however the workers interleaved.
        """
        from repro.obs.spool import read_spool

        merged = 0
        for spool in sorted(self._results.glob("*.spans")):
            name = spool.stem
            merged += tracer.merge_records(
                read_spool(spool), parent=self._job_spans.get(name)
            )
            spool.unlink()
        if merged:
            tracer.count("executor.worker_spans_merged", merged)
        return merged

    def shutdown(self, wait: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop.touch()
        for proc in self._procs:
            if wait:
                proc.join()
            else:
                proc.terminate()
                proc.join()
        self._procs.clear()
        if self._own_root:
            shutil.rmtree(self.root, ignore_errors=True)

    def __del__(self):  # pragma: no cover - best-effort backstop
        try:
            self.shutdown(wait=False)
        except Exception:
            pass


#: Backend registry: the ``execution.backend`` values that build an
#: executor (``"in_process"`` is the spec's name for building none).
EXECUTOR_BACKENDS: dict[str, type] = {
    "process_pool": ProcessPoolBackend,
    "file_queue": FileQueueBackend,
}


def make_executor(backend: str, max_workers: int):
    """Build a backend by registry name (the ``execution.backend`` seam)."""
    cls = EXECUTOR_BACKENDS.get(backend)
    if cls is None:
        raise ValueError(
            f"unknown executor backend {backend!r}; "
            f"choose from {sorted(EXECUTOR_BACKENDS)}"
        )
    return cls(max_workers)
