"""Suite-wide fixtures: one worker pool and channel for every sharded test,
the traced-run helper that reads per-stage engine measurements, and the
run-each-sequence-alone references the width-invariance tests compare a
full rank against.

Sharding takes a caller-owned executor and transport channel (the only
dispatch path), so the sharded tests share one ``Session``'s
``executor(2)`` and ``transport()`` instead of forking pools of their
own.  The session closes when the test run ends, which unlinks the
channel's shared-memory segments.
"""

from dataclasses import fields

import numpy as np
import pytest

from repro.api import Session
from repro.api.tracker import EvaluationResult, WorkloadStats
from repro.gaze.metrics import angular_errors
from repro.obs import Tracer, install_tracer, summarize


@pytest.fixture(scope="session")
def sharding():
    """``{"executor": ..., "transport": ...}`` for ``run(workers=2, ...)``."""
    with Session() as session:
        yield {
            "executor": session.executor(2),
            "transport": session.transport(),
        }


@pytest.fixture
def traced_stages():
    """``fn -> (fn(), stages)``: run ``fn`` under a fresh tracer.

    ``stages`` is :func:`repro.obs.summarize`'s roll-up of the run's
    ``engine.stage`` spans by stage name — count, ``wall_s``, ``frames``
    and ``calls``, summed over shards when the run was sharded.
    """

    def run(fn):
        tracer = Tracer()
        with install_tracer(tracer):
            result = fn()
        return result, summarize(tracer.to_records())["stages"]

    return run


def _signature(ctx) -> tuple:
    """What one frame context produced, in exactly comparable form."""
    seg = ctx.seg_pred
    return (
        ctx.seq_index,
        ctx.t,
        ctx.skipped,
        ctx.seg_reused,
        None if ctx.gaze_pred is None else tuple(map(float, ctx.gaze_pred)),
        None if seg is None else (seg.dtype.str, seg.shape, seg.tobytes()),
        repr(sorted(ctx.stats.items())),
    )


@pytest.fixture(scope="session")
def full_rank_and_alone():
    """``(runner, sequences) -> (full, alone)``: per-frame signatures of
    ``runner.run(sequences)`` (one lockstep rank) and of running each
    sequence alone (a rank of width 1), both in sequence-major order.
    Width invariance is ``full == alone``."""

    def run(runner, sequences):
        full = [_signature(c) for c in runner.run(sequences).contexts]
        alone = [
            _signature(c) for seq in sequences for c in runner.run([seq]).contexts
        ]
        return full, alone

    return run


@pytest.fixture(scope="session")
def evaluate_each_alone():
    """``(pipeline, indices, **kwargs) -> EvaluationResult``: what
    ``pipeline.evaluate(indices, **kwargs)`` must return, built by
    evaluating each sequence alone (a rank of width 1) and concatenating
    the results in sequence-major order."""

    def run(pipeline, indices, **kwargs):
        parts = [pipeline.evaluate([i], **kwargs) for i in indices]
        stats = WorkloadStats(
            **{
                f.name: [v for p in parts for v in getattr(p.stats, f.name)]
                for f in fields(WorkloadStats)
            }
        )
        predictions = np.concatenate([p.predictions for p in parts])
        truths = np.concatenate([p.truths for p in parts])
        horizontal, vertical = angular_errors(predictions, truths)
        return EvaluationResult(
            horizontal=horizontal,
            vertical=vertical,
            stats=stats,
            predictions=predictions,
            truths=truths,
        )

    return run
