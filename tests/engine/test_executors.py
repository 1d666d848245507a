"""The process pool: sharded runs bitwise == the serial run.

:class:`~repro.engine.executors.ProcessPoolBackend` is the pool every
sharded path dispatches through (via ``Shards.map``); these tests pin
its contract (submit/shutdown/max_workers), the fan-out's part order,
its parity on a real staged-engine run, and how a traced job's worker
spans come home with its result.
"""

from concurrent.futures import Future

import numpy as np
import pytest

from repro.engine import ProcessPoolBackend, SequenceRunner, Stage
from repro.obs import Tracer, current_tracer, install_tracer


def _square(x):
    return x * x


def _boom():
    raise ValueError("worker-side failure")


def _scaled(factor, part):
    return [factor * x for x in part]


def _traced_square(x):
    with current_tracer().span("job.work", x=x):
        return x * x


def _ambient_tracer_is_none():
    return current_tracer() is None


def _traced_boom():
    current_tracer().point("job.before_failure")
    raise KeyError("worker-side failure")


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
    def test_submit_shutdown(self):
        ex = ProcessPoolBackend(2)
        try:
            assert ex.max_workers == 2
            assert ex.submit(_square, 7).result(30) == 49
        finally:
            ex.shutdown(wait=True)

    def test_submit_after_shutdown_raises(self):
        ex = ProcessPoolBackend(2)
        ex.shutdown(wait=True)
        with pytest.raises(RuntimeError):
            ex.submit(_square, 1)

    def test_worker_exception_reaches_the_future(self, sharding):
        with pytest.raises(ValueError, match="worker-side failure"):
            sharding.executor.submit(_boom).result(timeout=30)

    def test_results_arrive_in_submission_order(self, sharding):
        futures = [sharding.executor.submit(_square, i) for i in range(10)]
        assert [f.result(30) for f in futures] == [i * i for i in range(10)]


class TestShardsMap:
    def test_results_arrive_in_part_order(self, sharding):
        stats = sharding.channel.stats
        dispatches = stats["dispatches"]
        parts = [[1, 2], [3], [4, 5, 6]]
        assert sharding.map(_scaled, 10, parts) == [
            [10, 20], [30], [40, 50, 60]
        ]
        assert stats["dispatches"] == dispatches + len(parts)


class TestEngineParity:
    """The acceptance pin: the pool == serial reference on a real
    staged run (shards + transport + fixed-order merge)."""

    def test_pool_bitwise_identical_to_serial(self, sharding, traced_stages):
        sequences = [(i, Seq()) for i in (4, 1, 3, 0, 2)]
        expected = _contexts(SequenceRunner([Probe()]).run(sequences))
        run, stages = traced_stages(
            lambda: SequenceRunner([Probe()]).run(
                sequences, shards=sharding
            )
        )
        assert _contexts(run) == expected
        assert stages["probe"]["frames"] == len(sequences) * 3


class TestTracedJobs:
    def test_untraced_submit_is_a_plain_pool_future(self, sharding):
        future = sharding.executor.submit(_square, 3)
        assert type(future) is Future
        assert future.result(30) == 9

    def test_worker_spans_merge_under_their_job_in_submission_order(
        self, sharding
    ):
        ex = sharding.executor
        tracer = Tracer()
        with install_tracer(tracer):
            futures = [ex.submit(_traced_square, i) for i in (3, 4)]
            assert ex.unmerged_jobs == 2
            assert [f.result(30) for f in futures] == [9, 16]
        assert ex.unmerged_jobs == 0
        jobs = [s for s in tracer.spans if s.name == "executor.job"]
        work = [s for s in tracer.spans if s.name == "job.work"]
        assert [j.attrs["seq"] for j in jobs] == [1, 2]
        assert [w.attrs["x"] for w in work] == [3, 4]
        assert [w.parent for w in work] == [j.id for j in jobs]
        assert tracer.counters["executor.jobs"] == 2
        assert tracer.counters["executor.worker_spans_merged"] == 2

    def test_untraced_job_after_a_traced_fork_sees_no_tracer(self):
        # The workers fork inside the traced submit and inherit the
        # dispatcher's ambient tracer; it stays invisible to later jobs.
        ex = ProcessPoolBackend(2)
        try:
            with install_tracer(Tracer()):
                assert ex.submit(_traced_square, 3).result(30) == 9
            futures = [ex.submit(_ambient_tracer_is_none) for _ in range(2)]
            assert [f.result(30) for f in futures] == [True, True]
        finally:
            ex.shutdown()

    def test_failed_job_merges_partial_spans_then_reraises(self, sharding):
        ex = sharding.executor
        tracer = Tracer()
        with install_tracer(tracer):
            future = ex.submit(_traced_boom)
            with pytest.raises(KeyError, match="worker-side failure") as info:
                future.result(30)
        assert not hasattr(info.value, "trace_records")
        (job,) = [s for s in tracer.spans if s.name == "executor.job"]
        (partial,) = [
            s for s in tracer.spans if s.name == "job.before_failure"
        ]
        assert partial.parent == job.id
        assert ex.unmerged_jobs == 0
