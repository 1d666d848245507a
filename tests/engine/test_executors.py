"""Executor backends: every backend bitwise == the serial run.

The :class:`~repro.engine.executors.ExecutorBackend` protocol is the
seam every sharded path dispatches through; these tests pin the
contract (submit/map/shutdown/max_workers), both backends' parity on a
real staged-engine run, and the file-queue backend's self-containment
(jobs round-trip through spooled files only).
"""

import glob
import tempfile

import numpy as np
import pytest

from repro.engine import (
    EXECUTOR_BACKENDS,
    FileQueueBackend,
    SequenceRunner,
    Stage,
    make_executor,
)
from repro.engine.executors import SPOOL_PREFIX, FileQueueJobError


def _square(x):
    return x * x


def _boom():
    raise ValueError("worker-side failure")


class Probe(Stage):
    name = "probe"

    def process_batch(self, ctxs, seqs):
        for ctx in ctxs:
            ctx.gaze_pred = (float(ctx.seq_index), float(ctx.t))


class Seq:
    frames = np.zeros((3, 4, 4))


def _contexts(run):
    return [(c.seq_index, c.t, c.gaze_pred) for c in run.contexts]


class TestProtocolContract:
    @pytest.mark.parametrize("backend", sorted(EXECUTOR_BACKENDS))
    def test_submit_map_shutdown(self, backend):
        ex = make_executor(backend, 2)
        try:
            assert ex.max_workers == 2
            # result(timeout) is part of the future contract everywhere.
            assert ex.submit(_square, 7).result(30) == 49
            assert list(ex.map(_square, [1, 2, 3])) == [1, 4, 9]
        finally:
            ex.shutdown(wait=True)

    @pytest.mark.parametrize("backend", ("process_pool", "file_queue"))
    def test_submit_after_shutdown_raises(self, backend):
        ex = make_executor(backend, 2)
        ex.shutdown(wait=True)
        with pytest.raises(RuntimeError):
            ex.submit(_square, 1)

    def test_worker_exception_reaches_the_future(self, sharding):
        with pytest.raises(ValueError, match="worker-side failure"):
            sharding["executor"].submit(_boom).result(timeout=30)

    def test_file_queue_ships_tracebacks(self):
        ex = FileQueueBackend(max_workers=1)
        try:
            with pytest.raises(
                FileQueueJobError, match="worker-side failure"
            ):
                ex.submit(_boom).result(timeout=30)
        finally:
            ex.shutdown(wait=True)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown executor backend"):
            make_executor("slurm", 2)

    def test_results_arrive_in_submission_order(self, sharding):
        futures = [sharding["executor"].submit(_square, i) for i in range(10)]
        assert [f.result(30) for f in futures] == [i * i for i in range(10)]


class TestEngineParity:
    """The acceptance pin: both backends == serial reference on a real
    staged run (shards + transport + fixed-order merge)."""

    @pytest.fixture(scope="class")
    def reference(self):
        sequences = [(i, Seq()) for i in (4, 1, 3, 0, 2)]
        run = SequenceRunner([Probe()]).run(sequences)
        return sequences, _contexts(run)

    @pytest.mark.parametrize("backend", ("process_pool", "file_queue"))
    def test_backend_bitwise_identical_to_serial(
        self, backend, reference, sharding
    ):
        sequences, expected = reference
        if backend == "process_pool":
            run = SequenceRunner([Probe()]).run(
                sequences, workers=2, **sharding
            )
        else:
            ex = make_executor(backend, 2)
            try:
                run = SequenceRunner([Probe()]).run(
                    sequences,
                    workers=2,
                    executor=ex,
                    transport=sharding["transport"],
                )
            finally:
                ex.shutdown(wait=True)
        assert _contexts(run) == expected
        assert run.stage_timings["probe"].frames == len(sequences) * 3


class TestFileQueueSelfContainment:
    def test_spool_directory_removed_on_shutdown(self):
        ex = FileQueueBackend(max_workers=2)
        root = ex.root
        assert root.name.startswith(SPOOL_PREFIX)
        assert ex.submit(_square, 3).result(timeout=30) == 9
        ex.shutdown(wait=True)
        assert not root.exists()

    def test_no_spool_leaks_after_shutdown(self):
        before = set(sorted(glob.glob(f"{tempfile.gettempdir()}/{SPOOL_PREFIX}*")))
        ex = FileQueueBackend(max_workers=2)
        list(ex.map(_square, range(8)))
        ex.shutdown(wait=True)
        after = set(sorted(glob.glob(f"{tempfile.gettempdir()}/{SPOOL_PREFIX}*")))
        assert after <= before

    def test_queue_drains_fifo_under_one_worker(self):
        # One worker forces strictly sequential claims; results must
        # still land under their own job names (no cross-talk).
        ex = FileQueueBackend(max_workers=1)
        try:
            futures = [ex.submit(_square, i) for i in range(6)]
            assert [f.result(timeout=60) for f in futures] == [
                i * i for i in range(6)
            ]
        finally:
            ex.shutdown(wait=True)

    def test_shutdown_without_wait_terminates_workers(self):
        ex = FileQueueBackend(max_workers=2)
        ex.submit(_square, 2).result(timeout=30)
        procs = list(ex._procs)
        ex.shutdown(wait=False)
        assert all(not p.is_alive() for p in procs)
