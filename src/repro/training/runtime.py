"""The batched + sharded training runtime (the training-side engine).

Every other execution surface of this reproduction — evaluation, strategy
sweeps, serving — runs on the engine's batched-rank design: fixed-width
vectorized ranks, per-unit spawned RNG streams keyed by stable identity,
and fixed-order reductions, which together make execution mode (scalar /
batched / sharded) a pure performance knob.  This module brings the last
layer, *training*, onto the same design and retires the per-frame
``JointTrainer._train_step`` loop.

:class:`TrainRunner` forms minibatches of teacher-forced frame pairs and
runs each as **one rank**:

* ``eventify`` vectorized over the stacked ``(B, H, W)`` frame pairs;
* the ROI predictor's batched forward/backward (its conv trunk is the
  row-independent GEMM introduced in PR 2);
* :meth:`~repro.training.joint.SoftROIMask.forward_batch` /
  ``backward_batch`` over the ``(B, 4)`` predicted boxes;
* one ViT forward/backward per minibatch;
* per-sample RNG streams for the cue dropout / cue dilation draws and the
  Bernoulli sampling masks, keyed ``[seed, TRAIN_STREAM_TAG, epoch,
  seq_index, t]`` and drawn in fixed sample order — what a sample draws
  never depends on which rank (or worker) it lands in.

Determinism contract (pinned by ``tests/training/``):

* ``batch_size=1`` reproduces the historical per-frame stepping bitwise
  (against a transcription of the retired loop under the per-sample
  stream semantics — the PR 1/2 convention for redefined streams);
* ``batch_size > 1`` is a **documented semantic change**: one Adam step
  per minibatch instead of per frame pair (``docs/training.md``);
* ``grad_accum=True`` is the data-parallel schedule: per-sequence
  gradient sums, reduced in fixed sequence order, one Adam step per
  epoch.  ``workers >= 2`` shards the per-sequence gradient passes over
  processes; because the reduction order is fixed and the streams are
  identity-keyed, **any** worker count produces bitwise-identical
  results to the in-process accumulation.
"""

from __future__ import annotations

import zlib
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.nn import Adam, CrossEntropyLoss, MSELoss
from repro.obs.tracer import current_tracer
from repro.nn.functional import grey_dilation, grey_erosion
from repro.sampling.eventification import eventify
from repro.sampling.random_sampling import random_mask_in_box
from repro.sampling.roi import ROIPredictor, box_from_pixels, box_to_pixels
from repro.training.joint import (
    JointTrainConfig,
    JointTrainResult,
    SoftROIMask,
)
from repro.training.loop import TrainResult, batched

__all__ = [
    "TRAIN_STREAM_TAG",
    "TrainSample",
    "TrainRunner",
    "collect_frame_pairs",
    "sample_stream",
    "run_segmentation_epochs",
]

#: Namespaces the training streams away from every other consumer of the
#: same base seed (the serving runtime uses the analogous
#: ``SERVE_STREAM_TAG``).
TRAIN_STREAM_TAG = zlib.crc32(b"repro.training")


def sample_stream(
    seed: int, epoch: int, seq_index: int, t: int
) -> np.random.Generator:
    """The RNG stream of one training sample in one epoch.

    Keyed by stable identity — never by execution order — so the draws
    are invariant to minibatch composition, rank width and shard
    placement.  Fixed draw order within the stream: (1) cue dropout,
    (2) cue dilation (probability, radius, direction), (3) the Bernoulli
    sampling mask.
    """
    return np.random.default_rng([seed, TRAIN_STREAM_TAG, epoch, seq_index, t])


@dataclass
class TrainSample:
    """One teacher-forced frame pair of the joint procedure."""

    seq_index: int
    t: int
    prev_frame: np.ndarray
    frame: np.ndarray
    prev_seg: np.ndarray | None
    target_seg: np.ndarray
    gt_box: tuple | None


def _sequence_samples(seq_index: int, seq) -> list[TrainSample]:
    """The frame pairs of one sequence, in time order.

    Teacher forcing: the previous frame's ground-truth segmentation
    stands in for the host's fed-back map.
    """
    return [
        TrainSample(
            seq_index=seq_index,
            t=t,
            prev_frame=seq.frames[t - 1],
            frame=seq.frames[t],
            prev_seg=seq.segmentations[t - 1],
            target_seg=seq.segmentations[t],
            gt_box=seq.roi_boxes[t],
        )
        for t in range(1, len(seq))
    ]


def collect_frame_pairs(dataset, sequence_indices: Sequence[int]) -> list[TrainSample]:
    """All frame pairs of the given sequences, sequence-major."""
    samples: list[TrainSample] = []
    for seq_index in sequence_indices:
        samples.extend(_sequence_samples(seq_index, dataset[seq_index]))
    return samples


def _augmented_cue(
    sample: TrainSample, config: JointTrainConfig, rng: np.random.Generator
) -> np.ndarray | None:
    """Cue dropout / dilation augmentation for one sample.

    The draw order transcribes the retired per-frame loop exactly; the
    grey morphology is the numpy helper (:func:`repro.nn.functional.
    grey_dilation`), so the training hot path carries no scipy
    dependency.  Symmetric corruption makes the cue's *area*
    uninformative about the true box, forcing the predictor to take the
    extent from the event map and use the cue only for coarse
    localization.
    """
    prev_seg = sample.prev_seg
    if config.cue_dropout and rng.random() < config.cue_dropout:
        return None
    if (
        prev_seg is not None
        and config.cue_dilate_prob
        and rng.random() < config.cue_dilate_prob
    ):
        radius = int(rng.integers(1, config.cue_dilate_max_px + 1))
        size = 2 * radius + 1
        if rng.random() < 0.5:
            return grey_dilation(prev_seg, size)
        return grey_erosion(prev_seg, size)
    return prev_seg


def _rank_backward(
    roi_predictor,
    segmenter,
    config: JointTrainConfig,
    seed: int,
    epoch: int,
    batch: list[TrainSample],
    seg_loss,
    roi_loss,
    soft_mask: SoftROIMask,
) -> tuple[float, float]:
    """One minibatch through the joint pipeline as a single rank.

    Accumulates the minibatch's parameter gradients of both networks on
    top of the existing ones (callers zero them first when they want
    fresh ones) and returns ``(seg_loss, roi_loss)`` — the minibatch-mean
    segmentation cross entropy and the mean ROI regression error over
    the box-supervised samples (0.0 when none are).

    The op sequence transcribes the retired ``_train_step`` with the
    batch axis stacked; at ``B=1`` every kernel is bitwise-identical to
    the per-frame loop (the parity test pins this end to end).
    """
    height, width = batch[0].frame.shape
    prev_frames = np.stack([s.prev_frame for s in batch])
    frames = np.stack([s.frame for s in batch])
    targets = np.stack([s.target_seg for s in batch])

    # -- in-sensor stages: vectorized eventification + per-sample cues ----
    event_maps = eventify(prev_frames, frames)  # (B, H, W), elementwise
    streams = [
        sample_stream(seed, epoch, s.seq_index, s.t) for s in batch
    ]
    cues = [
        _augmented_cue(sample, config, rng)
        for sample, rng in zip(batch, streams)
    ]
    roi_in = np.concatenate(
        [
            ROIPredictor.make_input(event_maps[i], cues[i])
            for i in range(len(batch))
        ]
    )
    box_pred = roi_predictor(roi_in)  # (B, 4), sigmoid-activated

    # ROI regression loss against the ground-truth foreground boxes.
    # Blink frames (no GT box) get zero weight: no box supervision, zero
    # gradient, zero reported loss — as in the per-frame loop.
    gt_norm = np.zeros_like(box_pred)
    supervised = np.zeros((len(batch), 1))
    for i, sample in enumerate(batch):
        if sample.gt_box is not None:
            gt_norm[i] = box_from_pixels(sample.gt_box, height, width)
            supervised[i, 0] = 1.0
    roi_loss_val = roi_loss.forward(box_pred, gt_norm, mask=supervised)
    grad_box_mse = roi_loss.backward()

    # Hard sampling for the forward pass (what the sensor actually does),
    # drawn per sample from its own stream, in fixed sample order.
    bern = np.empty((len(batch), height, width), dtype=bool)
    for i, rng in enumerate(streams):
        pixel_box = box_to_pixels(box_pred[i], height, width)
        bern[i] = random_mask_in_box(
            (height, width), pixel_box, config.roi_sampling_rate, rng
        )

    # Soft relaxation for the backward path through sampling: one batched
    # mask rank over the (B, 4) boxes.
    soft = soft_mask.forward_batch(box_pred)
    eff_mask = bern * soft
    sparse = frames * eff_mask

    # -- off-sensor segmentation: one ViT forward/backward per rank -------
    logits = segmenter(sparse, eff_mask)
    seg_loss_val = seg_loss.forward(logits, targets)
    grad_logits = seg_loss.backward()

    grad_pix, grad_bit = segmenter.backward_to_input(grad_logits)

    # Chain rule into the soft mask, gradient-masked to sampled pixels
    # (the paper's explicit masking rule): bern zeroes unsampled pixels.
    grad_soft = (grad_pix * frames + grad_bit) * bern
    grad_box_seg = soft_mask.backward_batch(grad_soft)

    total_grad_box = grad_box_mse + config.seg_to_roi_weight * grad_box_seg
    roi_predictor.backward(total_grad_box)
    return seg_loss_val, float(roi_loss_val)


@dataclass
class _SequenceGrads:
    """One sequence's accumulated epoch contribution (the reduction atom
    of the data-parallel schedule — sequences are never split across
    shards, so any shard geometry reduces identically)."""

    seq_index: int
    #: Each network's gradients, flattened and concatenated in
    #: ``parameters()`` order (the layout of its optimizer's arena).
    roi_grad: np.ndarray
    seg_grad: np.ndarray
    seg_sum: float
    roi_sum: float
    ranks: int


def _sequence_gradients(
    roi_predictor,
    segmenter,
    config: JointTrainConfig,
    seed: int,
    epoch: int,
    seq_index: int,
    seq,
    seg_loss,
    roi_loss,
    soft_mask: SoftROIMask,
) -> _SequenceGrads:
    """Accumulate one sequence's gradients at the current weights.

    Ranks never span sequences here: each sequence's frame pairs are cut
    into ``batch_size`` minibatches and their gradients accumulate in
    rank order — a pure function of (weights, config, seed, epoch,
    sequence), which is what makes the per-sequence sums shard-placement
    invariant.
    """
    samples = _sequence_samples(seq_index, seq)
    roi_predictor.zero_grad()
    segmenter.zero_grad()
    seg_sum, roi_sum, ranks = 0.0, 0.0, 0
    for rank in batched(samples, config.batch_size):
        seg_l, roi_l = _rank_backward(
            roi_predictor,
            segmenter,
            config,
            seed,
            epoch,
            rank,
            seg_loss,
            roi_loss,
            soft_mask,
        )
        seg_sum += seg_l
        roi_sum += roi_l
        ranks += 1
    return _SequenceGrads(
        seq_index=seq_index,
        roi_grad=_flat_grad(roi_predictor),
        seg_grad=_flat_grad(segmenter),
        seg_sum=seg_sum,
        roi_sum=roi_sum,
        ranks=ranks,
    )


def _flat_grad(module) -> np.ndarray:
    """A copy of ``module``'s gradients, concatenated in parameter order."""
    return np.concatenate([p.grad.ravel() for p in module.parameters()])


def _dataset_cache_key(dataset_type, dataset_cfg) -> tuple:
    """The worker-cache key of one rebuildable dataset.

    Keyed by the config's *content* (a digest of its pickle), not object
    identity: two runs shipping equal configs share one worker-side
    dataset, and any config change — however small — misses and
    rebuilds.
    """
    import hashlib
    import pickle as _pickle

    blob = _pickle.dumps(dataset_cfg, _pickle.HIGHEST_PROTOCOL)
    return (
        "train_dataset",
        dataset_type.__module__,
        dataset_type.__qualname__,
        hashlib.blake2b(blob, digest_size=16).hexdigest(),
    )


def _resolve_shard(shard_spec) -> list[tuple[int, object]]:
    """Materialize one shard's ``(seq_index, sequence)`` pairs in-worker.

    ``("rebuild", type, config, indices)`` re-renders the sequences from
    the dataset config — sequence ``i`` is a pure function of
    ``(config.seed, i)`` (the dataset's documented contract), so only
    the *indices* ship per epoch, not the frame data; the built dataset
    is cached across epochs (and runs) in the transport layer's keyed
    worker cache (:func:`repro.engine.transport.worker_cached` — the
    generalization of this module's historical single-slot cache), so a
    persistent pool serving interleaved configs keeps each one warm.
    ``("inline", pairs)`` is the fallback for datasets that cannot be
    rebuilt worker-side (no reconstructing ``config``, or sequences the
    parent already materialized and may have mutated).  Inline payloads
    re-ship each epoch: a process pool gives no worker affinity, so a
    once-only transfer could land on a worker that never cached it —
    rebuild mode is the fast path, inline the correctness fallback.
    """
    from repro.engine.transport import worker_cached

    if shard_spec[0] == "inline":
        return shard_spec[1]
    _, dataset_type, dataset_cfg, indices = shard_spec
    dataset = worker_cached(
        _dataset_cache_key(dataset_type, dataset_cfg),
        lambda: dataset_type(dataset_cfg),
    )
    return [(i, dataset[i]) for i in indices]


def _epoch_shard_job(models_handle, shard_handle, epoch: int):
    """Worker-side entry point: per-sequence gradients for one shard.

    Module-level so the pool can pickle it.  ``models_handle`` carries
    ``(roi_predictor, segmenter, config, seed)`` published per epoch
    into a slot (so epoch ``e``'s weights replace epoch ``e-1``'s
    segments); ``shard_handle`` carries the run-constant shard *spec*,
    published once and digest-cached worker-side — sequence data is
    rebuilt worker-side from the dataset config (see
    :func:`_resolve_shard`).  Weight arrays arrive as read-only views
    over the mapped segments; ``Parameter.__setstate__`` recreates
    writable gradient buffers, and workers never write ``.data`` — they
    only accumulate gradients — so read-only weights are exactly as safe
    as pickled copies.  Workers rebuild the canonical loss kernels —
    :meth:`TrainRunner.run` refuses to shard when non-canonical
    components were injected, so worker-side and in-process execution
    can never silently diverge.
    """
    from repro.engine.transport import resolve_payload

    roi_predictor, segmenter, config, seed = resolve_payload(models_handle)
    seg_loss = CrossEntropyLoss()
    roi_loss = MSELoss()
    soft_mask = SoftROIMask(
        segmenter.config.height, segmenter.config.width, tau=config.tau
    )
    return [
        _sequence_gradients(
            roi_predictor,
            segmenter,
            config,
            seed,
            epoch,
            seq_index,
            seq,
            seg_loss,
            roi_loss,
            soft_mask,
        )
        for seq_index, seq in _resolve_shard(resolve_payload(shard_handle))
    ]


class TrainRunner:
    """Executes the joint training procedure in batched ranks.

    Parameters
    ----------
    roi_predictor, segmenter:
        The networks to train (mutated in place).
    config:
        The :class:`~repro.training.joint.JointTrainConfig`;
        ``batch_size`` sets the rank width / step granularity and
        ``grad_accum`` selects the data-parallel epoch schedule.
    rng:
        A generator (one integer is drawn from it to key the per-sample
        streams) or a plain integer seed.
    seg_loss, roi_loss, opt_seg, opt_roi, soft_mask:
        Injectable components, defaulting to the canonical ones; the
        :class:`~repro.training.joint.JointTrainer` front passes its own
        so callers can keep substituting them.
    """

    def __init__(
        self,
        roi_predictor,
        segmenter,
        config: JointTrainConfig,
        rng: np.random.Generator | int,
        *,
        seg_loss=None,
        roi_loss=None,
        opt_seg=None,
        opt_roi=None,
        soft_mask: SoftROIMask | None = None,
    ):
        self.roi_predictor = roi_predictor
        self.segmenter = segmenter
        self.config = config
        if isinstance(rng, np.random.Generator):
            #: One draw keys every per-sample stream (the spawn idiom:
            #: downstream streams derive from identity, not draw order).
            self.seed = int(rng.integers(2**63 - 1))
        else:
            self.seed = int(rng)
        self.seg_loss = seg_loss if seg_loss is not None else CrossEntropyLoss()
        self.roi_loss = roi_loss if roi_loss is not None else MSELoss()
        self.opt_seg = opt_seg or Adam(
            segmenter.parameters(), lr=config.lr_segmenter
        )
        self.opt_roi = opt_roi or Adam(
            roi_predictor.parameters(), lr=config.lr_roi
        )
        self.soft_mask = soft_mask or SoftROIMask(
            segmenter.config.height, segmenter.config.width, tau=config.tau
        )

    # -- the front door -----------------------------------------------------
    def run(
        self,
        dataset,
        sequence_indices: Sequence[int],
        *,
        workers: int | None = None,
        executor=None,
        transport=None,
    ) -> JointTrainResult:
        """Train over ``sequence_indices`` for ``config.epochs`` epochs.

        ``workers >= 2`` shards the data-parallel schedule's per-sequence
        gradient passes over ``executor`` — a persistent pool such as
        ``repro.api.Session.executor(n)`` — with the models and shard
        specs published on ``transport``, the caller's
        :class:`~repro.engine.transport.TransportChannel`
        (``Session.transport()``); both are required to shard
        (:func:`~repro.engine.executors.check_dispatch`).  Requires
        ``config.grad_accum`` — the stepped schedule updates weights
        every minibatch and is inherently sequential.  As with
        :meth:`~repro.engine.SequenceRunner.run`, the worker count is
        clamped to the sequence count: a single-sequence run stays
        in-process (same bits — workers never change results) even when
        an executor was injected.  Results are bitwise-identical for any
        worker count.
        """
        from repro.engine.executors import check_dispatch

        n_workers = check_dispatch(workers, executor, transport)
        if n_workers >= 2 and not self.config.grad_accum:
            raise ValueError(
                "sharded training requires grad_accum=True: the stepped "
                "schedule takes an Adam step per minibatch, which is "
                "inherently sequential; the data-parallel schedule "
                "accumulates per-sequence gradients (fixed reduction "
                "order) and steps once per epoch"
            )
        if n_workers >= 2 and not self._components_canonical():
            # Workers rebuild the canonical kernels (custom objects
            # generally do not pickle); silently diverging from the
            # in-process run would break the worker-count-neutrality
            # contract, so refuse instead.
            raise ValueError(
                "sharded training runs the canonical loss / soft-mask "
                "kernels in worker processes; substituted components "
                "would be silently ignored there — train in-process "
                "(workers=1) or drop the substitution"
            )
        indices = list(sequence_indices)
        self.segmenter.train()
        self.roi_predictor.train()
        return self._execute(dataset, indices, n_workers, executor, transport)

    def _components_canonical(self) -> bool:
        """Whether workers would rebuild exactly the components in use.

        ``_epoch_shard_job`` reconstructs the losses and soft mask from
        the config, so sharding is only allowed when the in-process
        instances are the canonical types *and* the soft mask carries
        the config's parameters (a canonical-type mask with a different
        ``tau`` or geometry would still diverge silently).
        """
        c = self.segmenter.config
        return (
            type(self.seg_loss) is CrossEntropyLoss
            and type(self.roi_loss) is MSELoss
            and type(self.soft_mask) is SoftROIMask
            and self.soft_mask.tau == self.config.tau
            and len(self.soft_mask._rows) == c.height
            and len(self.soft_mask._cols) == c.width
        )

    def _execute(
        self, dataset, indices: list[int], n_workers: int, executor, transport
    ) -> JointTrainResult:
        """Dispatch to the configured schedule; restore eval mode."""
        try:
            if self.config.grad_accum:
                result = self._run_accumulated(
                    dataset, indices, n_workers, executor, transport
                )
            else:
                result = self._run_stepped(
                    collect_frame_pairs(dataset, indices)
                )
        finally:
            self.segmenter.eval()
            self.roi_predictor.eval()
        return result

    # -- stepped schedule (legacy semantics at batch_size=1) ------------------
    def _run_stepped(self, samples: list[TrainSample]) -> JointTrainResult:
        """One Adam step per minibatch, minibatches cut sequence-major."""
        cfg = self.config
        result = JointTrainResult()
        tracer = current_tracer()
        for epoch in range(cfg.epochs):
            epoch_span = (
                tracer.span(
                    "train.epoch",
                    epoch=epoch,
                    schedule="stepped",
                    samples=len(samples),
                )
                if tracer is not None
                else nullcontext()
            )
            if tracer is not None:
                tracer.count("train.epochs")
            with epoch_span:
                self._stepped_epoch(samples, epoch, result)
        return result

    def _stepped_epoch(
        self, samples: list[TrainSample], epoch: int, result: JointTrainResult
    ) -> None:
        cfg = self.config
        seg_total, roi_total, steps = 0.0, 0.0, 0
        for rank in batched(samples, cfg.batch_size):
            self.opt_roi.zero_grad()
            self.opt_seg.zero_grad()
            seg_l, roi_l = _rank_backward(
                self.roi_predictor,
                self.segmenter,
                cfg,
                self.seed,
                epoch,
                rank,
                self.seg_loss,
                self.roi_loss,
                self.soft_mask,
            )
            self.opt_roi.clip_grad_norm(cfg.grad_clip)
            self.opt_seg.clip_grad_norm(cfg.grad_clip)
            self.opt_roi.step()
            self.opt_seg.step()
            seg_total += seg_l
            roi_total += roi_l
            steps += 1
        result.seg_losses.append(seg_total / max(steps, 1))
        result.roi_losses.append(roi_total / max(steps, 1))

    # -- data-parallel schedule (grad_accum) ----------------------------------
    def _run_accumulated(
        self,
        dataset,
        indices: list[int],
        workers: int,
        executor,
        transport,
    ) -> JointTrainResult:
        """One Adam step per epoch over fixed-order per-sequence sums."""
        from repro.engine import contiguous_shards

        cfg = self.config
        n_workers = min(workers, len(indices))
        result = JointTrainResult()
        # The reduction writes each network's flat gradient sum straight
        # into its optimizer's arena, so the layouts must agree.
        for net, opt in (
            (self.roi_predictor, self.opt_roi),
            (self.segmenter, self.opt_seg),
        ):
            if list(map(id, opt.params)) != list(map(id, net.parameters())):
                raise ValueError(
                    f"the data-parallel schedule needs an optimizer over "
                    f"exactly {type(net).__name__}.parameters(), in order"
                )
        # Shard *specs* are fixed for the whole run (sharded rebuild mode
        # never renders the training sequences in the parent at all) and
        # ship once, into slots a later training run on the same channel
        # will recycle.
        shard_handles = (
            [
                transport.publish(
                    self._shard_spec(dataset, shard), slot=("train_shard", i)
                )
                for i, shard in enumerate(contiguous_shards(indices, n_workers))
            ]
            if n_workers >= 2
            else None
        )
        tracer = current_tracer()
        for epoch in range(cfg.epochs):
            epoch_span = (
                tracer.span(
                    "train.epoch",
                    epoch=epoch,
                    schedule="accumulated",
                    sequences=len(indices),
                    workers=n_workers,
                )
                if tracer is not None
                else nullcontext()
            )
            if tracer is not None:
                tracer.count("train.epochs")
            with epoch_span:
                self._accumulate_epoch(
                    dataset, indices, shard_handles, transport, epoch,
                    executor, result,
                )
        return result

    @staticmethod
    def _shard_spec(dataset, shard_indices: list[int]):
        """What one worker needs to materialize its shard.

        With a config-reconstructible dataset only the *indices* ship
        each epoch — sequences re-render worker-side from
        ``(config.seed, index)``, the dataset's determinism contract
        (the same idiom the strategy-sweep fan-out uses).  The
        reconstruction is probed here (dataset constructors are lazy, so
        the probe renders nothing), and rebuild mode is only used when
        the parent has not yet materialized any of the shard's sequences
        — a caller-side mutation requires a materialized sequence, so
        re-rendering can never silently diverge from what the in-process
        path would train on.  Everything else ships the frame data
        inline.
        """
        config = getattr(dataset, "config", None)
        materialized = getattr(dataset, "is_materialized", None)
        pristine = materialized is not None and not any(
            materialized(i) for i in shard_indices
        )
        if config is not None and pristine:
            try:
                type(dataset)(config)
            except Exception:
                pass
            else:
                return ("rebuild", type(dataset), config, shard_indices)
        return ("inline", [(i, dataset[i]) for i in shard_indices])

    def _accumulate_epoch(
        self,
        dataset,
        indices: list[int],
        shard_handles: list | None,
        channel,
        epoch: int,
        executor,
        result: JointTrainResult,
    ) -> None:
        """One data-parallel epoch: reduce per-sequence sums, step once.

        ``shard_handles`` is ``None`` for the in-process accumulation.
        """
        cfg = self.config
        if shard_handles is not None:
            per_seq = self._sharded_epoch(
                shard_handles, channel, epoch, executor
            )
        else:
            # Lazy in-process generation: only one sequence's gradient
            # copies are alive at a time — the reduction below consumes
            # them in the same fixed sequence order either way.
            per_seq = (
                _sequence_gradients(
                    self.roi_predictor,
                    self.segmenter,
                    cfg,
                    self.seed,
                    epoch,
                    seq_index,
                    dataset[seq_index],
                    self.seg_loss,
                    self.roi_loss,
                    self.soft_mask,
                )
                for seq_index in indices
            )
        # Fixed-order reduction: per-sequence sums added in sequence
        # order — the bits cannot depend on which worker computed
        # which shard (or on the worker count at all).
        roi_total = np.zeros_like(self.opt_roi.grad)
        seg_total = np.zeros_like(self.opt_seg.grad)
        seg_sum, roi_sum, ranks = 0.0, 0.0, 0
        for grads in per_seq:
            roi_total += grads.roi_grad
            seg_total += grads.seg_grad
            seg_sum += grads.seg_sum
            roi_sum += grads.roi_sum
            ranks += grads.ranks
        if ranks == 0:
            # No frame pairs at all (empty indices / single-frame
            # sequences): no gradient, so no optimizer step — a warm
            # Adam would otherwise move the weights on pure momentum,
            # which the stepped schedule (and the retired loop) never
            # did for empty input.
            result.seg_losses.append(0.0)
            result.roi_losses.append(0.0)
            return
        scale = 1.0 / ranks
        np.multiply(roi_total, scale, out=self.opt_roi.grad)
        np.multiply(seg_total, scale, out=self.opt_seg.grad)
        self.opt_roi.clip_grad_norm(cfg.grad_clip)
        self.opt_seg.clip_grad_norm(cfg.grad_clip)
        self.opt_roi.step()
        self.opt_seg.step()
        result.seg_losses.append(seg_sum / ranks)
        result.roi_losses.append(roi_sum / ranks)

    def _sharded_epoch(
        self, shard_handles: list, channel, epoch: int, executor
    ):
        """Per-sequence gradients of one epoch, sharded over processes.

        Contiguous shards of whole sequences onto the caller's
        ``executor``.  The epoch-start weights (gradient buffers are
        stripped by ``Parameter.__getstate__``) are published into the
        ``"train_models"`` slot — each epoch's segments *replace* the
        previous epoch's (safe: every epoch-``e`` task completes before
        epoch ``e+1`` publishes) — and each dispatch ships two tiny
        handles.  Yields shard results in shard order — exact sequence
        order for the parent-side reduction.  Peak parent-side memory is
        bounded by the worker count: shards that finish early sit
        buffered in their futures until the in-order reduction reaches
        them.
        """
        models_handle = channel.publish(
            (self.roi_predictor, self.segmenter, self.config, self.seed),
            slot="train_models",
        )
        futures = [
            executor.submit(
                _epoch_shard_job, models_handle, shard_handle, epoch
            )
            for shard_handle in shard_handles
        ]
        tracer = current_tracer()
        if tracer is not None:
            tracer.count("train.shard_dispatches", len(futures))
        for future in futures:
            yield from future.result()


# -- generic segmentation training (the train_segmentation backend) ----------
def run_segmentation_epochs(
    model,
    samples: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    epochs: int,
    rng: np.random.Generator,
    lr: float,
    batch_size: int,
    grad_clip: float,
    supervise_sampled_only: bool,
) -> TrainResult:
    """The minibatched epoch loop behind :func:`repro.training.loop.
    train_segmentation`.

    Already a batched-rank computation (one model forward/backward per
    minibatch); it lives here so every training schedule — joint and
    plain segmentation alike — executes in the runtime layer.  The
    numerics are an exact transplant of the historical loop: same
    shuffle draws, same stacking, same step order, bitwise-identical
    results.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1: {epochs}")
    if not samples:
        raise ValueError("no training samples")
    loss_fn = CrossEntropyLoss()
    optimizer = Adam(model.parameters(), lr=lr)
    result = TrainResult()
    order = np.arange(len(samples))
    model.train()
    tracer = current_tracer()
    for epoch in range(epochs):
        epoch_span = (
            tracer.span(
                "train.epoch",
                epoch=epoch,
                schedule="segmentation",
                samples=len(samples),
            )
            if tracer is not None
            else nullcontext()
        )
        if tracer is not None:
            tracer.count("train.epochs")
        with epoch_span:
            rng.shuffle(order)
            epoch_loss = 0.0
            num_batches = 0
            for batch_idx in batched(list(order), batch_size):
                frames = np.stack([samples[i][0] for i in batch_idx])
                masks = np.stack([samples[i][1] for i in batch_idx])
                targets = np.stack([samples[i][2] for i in batch_idx])
                logits = model(frames, masks)
                loss_mask = masks if supervise_sampled_only else None
                loss = loss_fn.forward(logits, targets, mask=loss_mask)
                optimizer.zero_grad()
                model.backward(loss_fn.backward())
                optimizer.clip_grad_norm(grad_clip)
                optimizer.step()
                epoch_loss += loss
                num_batches += 1
            result.epoch_losses.append(epoch_loss / num_batches)
    model.eval()
    return result
