"""Suite-wide fixtures: one worker pool and channel for every sharded test,
the traced-run helper that reads per-stage engine measurements, and the
run-each-sequence-alone references the width-invariance tests compare a
full rank against, and the unpacked one-frame ViT forward the packed
kernel is compared against.

Sharding takes one :class:`~repro.engine.Shards` handle over a
caller-owned executor and transport channel (the only dispatch path),
so the sharded tests share one built from a ``Session``'s
``executor(2)`` and ``transport()`` instead of forking pools of their
own.  The session closes when the test run ends, which unlinks the
channel's shared-memory segments.
"""

from dataclasses import fields

import numpy as np
import pytest

from repro.api import Session
from repro.api.tracker import EvaluationResult, WorkloadStats
from repro.engine import Shards
from repro.gaze.metrics import angular_errors
from repro.nn import functional as F
from repro.obs import Tracer, install_tracer, summarize


@pytest.fixture(scope="session")
def sharding():
    """A 2-worker :class:`~repro.engine.Shards` for ``run(..., shards=...)``;
    ``dataclasses.replace(sharding, workers=n)`` cuts ``n`` parts on the
    same pool."""
    with Session() as session:
        yield Shards(session.executor(2), session.transport(), 2)


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


@pytest.fixture(scope="session")
def unpacked_reference():
    """``(vit, frame, mask) -> (logits, valid)``: the retired one-frame
    ``ViTSegmenter.forward_packed`` body, an independent form of the packed
    kernel.  The valid tokens of one frame run as a ``(1, n, D)`` batch
    through the blocks' unpacked path, with no slab and no ``runs``;
    ``logits`` is ``(H, W, classes)`` and ``valid`` the frame's token mask."""

    def run(vit, frame, mask):
        c = vit.config
        tokens, valid = vit._tokenize(frame[None], mask[None])
        keep = np.nonzero(valid[0])[0]
        logits = np.zeros((c.tokens, c.patch * c.patch * c.num_classes))
        if keep.size:
            x = vit.patch_embed(tokens[:, keep]) + vit.pos_embed.data[:, keep]
            for block in vit.encoder:
                x = block(x)
            cls = vit.class_embed.data.copy()
            joint = np.concatenate([x, cls], axis=1)
            for block in vit.decoder:
                joint = block(joint)
            packed = vit.head(vit.final_norm(joint[:, : keep.size]))
            logits[keep] = packed[0]
        per_pixel = logits.reshape(
            1, c.tokens, c.patch * c.patch, c.num_classes
        ).transpose(0, 1, 3, 2).reshape(
            1, c.tokens, c.num_classes * c.patch * c.patch
        )
        img = F.unpatchify(per_pixel, c.patch, c.num_classes, c.height, c.width)
        return img[0].transpose(1, 2, 0), valid[0]

    return run
