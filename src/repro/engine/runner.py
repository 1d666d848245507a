"""The sequence runner: executes a stage graph over batches of sequences.

Every mode runs the same loop over the same kernels: sequences advance
in *lockstep* ranks, and at each timestep every stage's
``process_batch`` handles the frames of the rank at once.  The modes
differ only in the rank width:

* **sequential** — ``batched=False``: ranks of width 1, i.e. sequences
  one after another, frames in order.
* **batched** — up to ``batch_size`` sequences per rank (all of them by
  default): vectorized eventification, grouped packed ViT inference,
  vectorized RLE accounting.  Because every sequence owns its own sensor
  spawn (and all cross-frame state lives in its ``SequenceState``), every
  width draws identical random streams and produces bitwise-identical
  contexts — the engine test suite asserts this end-to-end.
* **sharded** — ``workers >= 2`` partitions the sequences into
  contiguous shards and executes each shard on a caller-owned executor
  (``repro.api.Session.executor(n)``) at the width above, the payloads
  crossing as handles on the caller's transport channel
  (``Session.transport()``).  Sequences share no mutable state
  (per-sequence random streams are keyed by sequence index, never by
  execution order), so a shard's results do not depend on which process
  runs it: merged ``EngineRun``s are bitwise-identical to the
  single-process modes.  Requires the graph, the state factory and the
  sequences to be picklable — the canonical graphs keep their callables
  as plain classes for exactly this reason.

Results come back as an :class:`EngineRun`: the completed frame contexts
in *sequence-major* order (identical ordering in all modes, so
downstream accuracy statistics are reduction-order independent).  Wall
time is observability, not a result: under an installed tracer the run
opens an ``engine.run`` span and every :meth:`SequenceRunner._run_ranks`
call — in-process, or in a shard worker under its capture tracer —
emits one ``engine.stage`` span per stage carrying the stage's frames,
calls and wall seconds.  Untraced runs never read the clock.
"""

from __future__ import annotations

from concurrent.futures import Executor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.engine.context import FrameContext, SequenceState
from repro.engine.executors import check_dispatch
from repro.engine.stage import StageGraph
from repro.engine.transport import ObjectHandle, TransportChannel, resolve_payload
from repro.obs.tracer import current_tracer
from repro.obs.wall import wall_now

__all__ = [
    "SequenceRunner",
    "EngineRun",
    "contiguous_shards",
]

#: Shard oversubscription: cutting the rank into ``workers *
#: STEAL_FACTOR`` pieces lets an idle worker steal the next pending
#: shard, so unequal sequence lengths no longer leave workers stalled
#: behind one long contiguous shard.
STEAL_FACTOR = 4


@dataclass
class EngineRun:
    """Everything one :meth:`SequenceRunner.run` produced."""

    contexts: list[FrameContext]
    batched: bool
    #: Worker processes the run was sharded over (1 = in-process).
    workers: int = 1
    #: Transport accounting for sharded runs (``None`` in-process):
    #: mode ("shm"/"pickle"), dispatches, per-dispatch payload bytes
    #: (what actually crossed the pipe), and segment bytes written/reused
    #: — the evidence behind perfbench's ``transport.*`` metrics.
    transport: dict | None = None

    @property
    def evaluated(self) -> list[FrameContext]:
        """Contexts that made it through the full graph (non-bootstrap)."""
        return [c for c in self.contexts if not c.skipped]


def _default_state_factory(seq_index: int) -> SequenceState:
    return SequenceState(seq_index=seq_index)


def _execute_shard_handles(
    runner_handle: ObjectHandle,
    shard_handle: ObjectHandle,
    batched: bool,
) -> list[FrameContext]:
    """Worker-side entry point: resolve handles, then run the shard.

    The runner and the shard's sequences arrive as content-addressed
    :class:`~repro.engine.transport.ObjectHandle`\\ s: big arrays map
    read-only from shared memory and repeated dispatches of identical
    payloads hit the worker's digest cache instead of re-deserializing.
    Stages keep all cross-frame state in ``SequenceState`` (never on
    themselves), so executing a cached runner object repeatedly is
    exactly as stateless as unpickling a fresh copy per task — the
    sharded parity suites pin this.  A traced job's ``engine.stage``
    spans come home with the result through the pool's span capture.
    """
    runner = resolve_payload(runner_handle)
    shard = resolve_payload(shard_handle)
    return runner._run_ranks(shard, batched)


def contiguous_shards(items: list, n_shards: int) -> list[list]:
    """Cut ``items`` into up to ``n_shards`` contiguous balanced pieces.

    Empty pieces are dropped; concatenating the shards in order
    reproduces ``items`` exactly — the property every fixed-order merge
    in the repository relies on (the engine's sequence-rank sharding
    below, the training runtime's per-sequence gradient reduction, and
    the serve runtime's replica partitioning).  ``n_shards <= 0`` is a
    caller bug and raises instead of silently dropping every item.
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be >= 1: {n_shards}")
    bounds = np.linspace(0, len(items), n_shards + 1).astype(int)
    return [
        items[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
    ]


class SequenceRunner:
    """Execute a :class:`StageGraph` over sequences of frames.

    Parameters
    ----------
    graph:
        The stage graph (or a plain list of stages).
    state_factory:
        ``seq_index -> SequenceState``; builds the per-sequence state
        (e.g. spawning a per-sequence sensor from a calibrated template).
    batch_size:
        Rank width in batched mode; ``None`` runs all sequences in one
        rank.  Sequential mode always runs ranks of width 1.
    """

    def __init__(
        self,
        graph: StageGraph | Sequence,
        state_factory: Callable[[int], SequenceState] | None = None,
        batch_size: int | None = None,
        retain_intermediates: bool = True,
    ):
        self.graph = graph if isinstance(graph, StageGraph) else StageGraph(graph)
        self.state_factory = state_factory or _default_state_factory
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1: {batch_size}")
        self.batch_size = batch_size
        #: When False, each context's bulky per-frame products (event map,
        #: masks, sparse frame, seg map, readout) are dropped as soon as
        #: the last stage has consumed them, so run memory stays O(frames
        #: x scalars) instead of O(frames x frame size) — the evaluation
        #: collectors only need gaze + stats.
        self.retain_intermediates = retain_intermediates

    # -- context construction ------------------------------------------------
    @staticmethod
    def _contexts_for(seq_index: int, seq: Any) -> list[FrameContext]:
        """Build the frame contexts of one sequence.

        ``seq`` needs ``frames`` (T, H, W); ground-truth attributes
        (``gazes``, ``segmentations``, ``roi_boxes``) are optional.
        """
        frames = seq.frames
        gazes = getattr(seq, "gazes", None)
        segs = getattr(seq, "segmentations", None)
        boxes = getattr(seq, "roi_boxes", None)
        out = []
        for t in range(frames.shape[0]):
            out.append(
                FrameContext(
                    seq_index=seq_index,
                    t=t,
                    frame=frames[t],
                    prev_frame=frames[t - 1] if t > 0 else None,
                    gaze_true=gazes[t] if gazes is not None else None,
                    seg_true=segs[t] if segs is not None else None,
                    gt_box=boxes[t] if boxes is not None else None,
                )
            )
        return out

    # -- execution ----------------------------------------------------------
    def run(
        self,
        sequences: Sequence[tuple[int, Any]],
        batched: bool = False,
        workers: int | None = None,
        executor: Executor | None = None,
        transport: TransportChannel | None = None,
    ) -> EngineRun:
        """Run the graph over ``[(seq_index, sequence), ...]``.

        ``batched`` picks the rank width (``batch_size``, or every
        sequence, instead of 1).  ``workers >= 2`` shards the sequences
        over ``executor`` — a persistent pool such as
        ``repro.api.Session.executor(n)`` — with the runner and the
        shards published on ``transport``, the caller's
        :class:`~repro.engine.transport.TransportChannel`
        (``Session.transport()``), whose segments outlive the run so
        repeated runs ship each payload's bytes once.  Both are required
        to shard (:func:`~repro.engine.executors.check_dispatch`);
        ``None``/``1`` runs in-process.  The rank is cut into ``workers
        * STEAL_FACTOR`` contiguous shards so idle workers steal pending
        shards when sequence lengths are unequal; shard boundaries never
        affect results, only scheduling, and the merged result is
        bitwise-identical to the single-process modes.  The run's
        :attr:`EngineRun.transport` records what actually moved.
        """
        n_workers = check_dispatch(workers, executor, transport)
        sequences = list(sequences)
        n_workers = max(1, min(n_workers, len(sequences)))
        tracer = current_tracer()
        run_span = (
            tracer.span(
                "engine.run",
                sequences=len(sequences),
                batched=batched,
                workers=n_workers,
            )
            if tracer is not None
            else nullcontext()
        )
        transport_info = None
        with run_span as span:
            if n_workers >= 2:
                contexts, transport_info = self._run_sharded(
                    sequences, batched, n_workers, executor, transport
                )
            else:
                contexts = self._run_ranks(sequences, batched)
            if span is not None:
                span.attrs["frames"] = len(contexts)
        if tracer is not None:
            tracer.count("engine.runs")
            tracer.count("engine.frames", len(contexts))
        return EngineRun(
            contexts=contexts,
            batched=batched,
            workers=n_workers,
            transport=transport_info,
        )

    def _run_sharded(
        self,
        sequences: list[tuple[int, Any]],
        batched: bool,
        workers: int,
        executor: Executor,
        channel: TransportChannel,
    ) -> tuple[list[FrameContext], dict]:
        # Contiguous balanced shards, oversubscribed for work stealing:
        # concatenating shard outputs in shard order reproduces the
        # sequence-major ordering of the in-process modes exactly.
        shards = contiguous_shards(
            sequences, min(len(sequences), workers * STEAL_FACTOR)
        )
        before = dict(channel.stats)
        # The runner ships once per run; each shard ships as its own
        # handle so the work-stealing dispatch stays per-shard.
        runner_handle = channel.publish(self)
        shard_handles = [channel.publish(shard) for shard in shards]
        # submit() preserves shard order through the futures list while
        # letting the pool hand the next pending shard to whichever
        # worker frees up first.
        futures = [
            executor.submit(
                _execute_shard_handles, runner_handle, handle, batched
            )
            for handle in shard_handles
        ]
        results = [f.result() for f in futures]
        dispatch_bytes = sum(
            runner_handle.wire_bytes + handle.wire_bytes
            for handle in shard_handles
        )
        transport_info = {
            "mode": "shm" if channel.use_shm else "pickle",
            "dispatches": len(shards),
            "payload_bytes": dispatch_bytes,
            "payload_bytes_per_dispatch": dispatch_bytes / len(shards),
            "segment_bytes_written": (
                channel.stats["segment_bytes"] - before["segment_bytes"]
            ),
            "segments_created": (
                channel.stats["segments_created"] - before["segments_created"]
            ),
            "publish_reuses": (
                channel.stats["publish_reuses"] - before["publish_reuses"]
            ),
        }
        contexts = [ctx for shard in results for ctx in shard]
        return contexts, transport_info

    def _run_ranks(self, sequences, batched) -> list[FrameContext]:
        # Lanes are keyed by *position* in ``sequences``, not by sequence
        # index — a repeated index is two independent lanes.
        if not sequences:
            return []
        tracer = current_tracer()
        # Stage name -> [wall seconds, frames, calls], kept only while a
        # tracer (the ambient one, or a shard job's capture) is listening.
        timings = (
            {name: [0.0, 0, 0] for name in self.graph.stage_names}
            if tracer is not None
            else None
        )
        lanes: dict[int, list[FrameContext]] = {}
        width = (self.batch_size or len(sequences)) if batched else 1
        for chunk_start in range(0, len(sequences), width):
            positions = range(
                chunk_start, min(chunk_start + width, len(sequences))
            )
            states = {}
            for pos in positions:
                seq_index, seq = sequences[pos]
                state = self.state_factory(seq_index)
                for stage in self.graph:
                    stage.start_sequence(state)
                states[pos] = state
                lanes[pos] = self._contexts_for(seq_index, seq)
            horizon = max(len(lanes[pos]) for pos in positions)
            for t in range(horizon):
                live = [pos for pos in positions if t < len(lanes[pos])]
                rank = ctxs = [lanes[pos][t] for pos in live]
                seqs = [states[pos] for pos in live]
                for stage in self.graph:
                    # Frames only ever become skipped, so the live rank
                    # shrinks monotonically through the graph.
                    if any(c.skipped for c in ctxs):
                        seqs = [s for c, s in zip(ctxs, seqs) if not c.skipped]
                        ctxs = [c for c in ctxs if not c.skipped]
                        if not ctxs:
                            break
                    if timings is None:
                        stage.process_batch(ctxs, seqs)
                        continue
                    start = wall_now()
                    stage.process_batch(ctxs, seqs)
                    timing = timings[stage.name]
                    timing[0] += wall_now() - start
                    timing[1] += len(ctxs)
                    timing[2] += 1
                if not self.retain_intermediates:
                    for ctx in rank:
                        ctx.release_intermediates()
        if tracer is not None:
            # Graph order; in a sharded run each shard job emits its own
            # set, so summing a stage's spans gives the run's totals.
            for name, (seconds, frames, calls) in timings.items():
                tracer.point(
                    "engine.stage",
                    wall_dur=seconds,
                    stage=name,
                    frames=frames,
                    calls=calls,
                )
        # Sequence-major order at every width.
        return [ctx for pos in range(len(sequences)) for ctx in lanes[pos]]
