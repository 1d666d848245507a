"""The sequence runner: executes a stage graph over batches of sequences.

Sequences advance in *lockstep*: at each timestep every stage's
``process_batch`` handles the frames of one rank at once.  There are
two modes, and they run the same loop over the same kernels:

* **in-process** — one rank of every sequence: vectorized
  eventification, packed-slab ViT inference, vectorized RLE
  accounting.  Every sequence owns its own sensor spawn (and all
  cross-frame state lives in its ``SequenceState``), so a sequence's
  contexts do not depend on which other sequences share its rank: the
  full rank is bitwise-identical to running each sequence alone — the
  engine test suite asserts this end-to-end.
* **sharded** — a :class:`~repro.engine.executors.Shards` handle runs
  one contiguous shard per worker through ``Shards.map``, each as one
  lockstep rank of its own sequences, the payloads — the runner once,
  and per sequence only what the contexts read
  (:func:`_sequence_fields`) — crossing as handles on the handle's
  transport channel.  Sequences share no mutable state
  (per-sequence random streams are keyed by sequence index, never by
  execution order), so a shard's results do not depend on which process
  runs it: merged ``EngineRun``s are bitwise-identical to the
  in-process mode.  Requires the graph and the state factory to be
  picklable — the canonical graphs keep their callables as plain
  classes for exactly this reason.

Results come back as an :class:`EngineRun`: the completed frame contexts
in *sequence-major* order (identical ordering in both modes, so
downstream accuracy statistics are reduction-order independent).  Wall
time is observability, not a result: under an installed tracer the run
opens an ``engine.run`` span and every :meth:`SequenceRunner._run_rank`
call — in-process, or in a shard worker under its capture tracer —
emits one ``engine.stage`` span per stage carrying the stage's frames,
calls and wall seconds.  Untraced runs never read the clock.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.engine.context import FrameContext, SequenceState
from repro.engine.executors import Shards
from repro.engine.stage import StageGraph
from repro.obs.tracer import current_tracer

__all__ = [
    "SequenceRunner",
    "EngineRun",
    "contiguous_shards",
]

@dataclass
class EngineRun:
    """Everything one :meth:`SequenceRunner.run` produced."""

    contexts: list[FrameContext]
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


def _execute_shard(runner: "SequenceRunner", shard: list) -> list:
    """The :meth:`~repro.engine.executors.Shards.map` job: run one shard
    as one lockstep rank.

    Stages keep all cross-frame state in ``SequenceState`` (never on
    themselves), so running a worker's cached runner object repeatedly
    is exactly as stateless as unpickling a fresh copy per task — the
    sharded parity suites pin this.  A traced job's ``engine.stage``
    spans come home with the result through the pool's span capture.
    """
    return runner._run_rank(shard)


def _sequence_fields(seq: Any) -> tuple:
    """What the frame contexts of ``seq`` read: ``(frames, gazes,
    roi_boxes)``, ground truth ``None`` when absent.  A sharded run
    publishes just this, so unread arrays (``clean_frames``,
    ``segmentations``) never cross to a worker."""
    return seq.frames, getattr(seq, "gazes", None), getattr(seq, "roi_boxes", None)


def contiguous_shards(items: list, n_shards: int) -> list[list]:
    """Cut ``items`` into up to ``n_shards`` contiguous balanced pieces.

    Empty pieces are dropped; concatenating the shards in order
    reproduces ``items`` exactly — the property every fixed-order merge
    in the repository relies on (the engine's sequence-rank sharding
    below and the serve runtime's replica partitioning).
    ``n_shards <= 0`` is a caller bug and raises instead of silently
    dropping every item.
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
    """

    def __init__(
        self,
        graph: StageGraph | Sequence,
        state_factory: Callable[[int], SequenceState] | None = None,
        retain_intermediates: bool = True,
    ):
        self.graph = graph if isinstance(graph, StageGraph) else StageGraph(graph)
        self.state_factory = state_factory or _default_state_factory
        #: When False, each context's bulky per-frame products (event map,
        #: masks, sparse frame, seg map, readout) are dropped as soon as
        #: the last stage has consumed them, so run memory stays O(frames
        #: x scalars) instead of O(frames x frame size) — the evaluation
        #: collectors only need gaze + stats.
        self.retain_intermediates = retain_intermediates

    # -- context construction ------------------------------------------------
    @staticmethod
    def _contexts_for(seq_index: int, fields: tuple) -> list[FrameContext]:
        """One sequence's frame contexts, from its :func:`_sequence_fields`."""
        frames, gazes, boxes = fields
        return [
            FrameContext(
                seq_index=seq_index,
                t=t,
                frame=frames[t],
                prev_frame=frames[t - 1] if t > 0 else None,
                gaze_true=gazes[t] if gazes is not None else None,
                gt_box=boxes[t] if boxes is not None else None,
            )
            for t in range(frames.shape[0])
        ]

    # -- execution ----------------------------------------------------------
    def run(
        self,
        sequences: Sequence[tuple[int, Any]],
        shards: Shards | None = None,
    ) -> EngineRun:
        """Run the graph over ``[(seq_index, sequence), ...]``.

        In-process (``shards=None``), the sequences run as one lockstep
        rank.  With a :class:`~repro.engine.executors.Shards` handle
        (``Session.executor(n)`` and ``Session.transport()``) they are
        cut into one contiguous shard per worker, each run as one rank
        in a pool worker; the channel's segments outlive the run, so
        repeated runs ship each payload's bytes once.  Shard boundaries
        never affect results, only scheduling: the merged result is
        bitwise-identical to the in-process mode.  The run's
        :attr:`EngineRun.transport` records what actually moved.
        """
        lanes = [(i, _sequence_fields(seq)) for i, seq in sequences]
        n_workers = (
            1 if shards is None else max(1, min(shards.workers, len(lanes)))
        )
        tracer = current_tracer()
        run_span = (
            tracer.span(
                "engine.run",
                sequences=len(lanes),
                workers=n_workers,
            )
            if tracer is not None
            else nullcontext()
        )
        transport_info = None
        with run_span as span:
            if n_workers >= 2:
                contexts, transport_info = self._run_sharded(
                    lanes, n_workers, shards
                )
            else:
                contexts = self._run_rank(lanes)
            if span is not None:
                span.attrs["frames"] = len(contexts)
        if tracer is not None:
            tracer.count("engine.runs")
            tracer.count("engine.frames", len(contexts))
        return EngineRun(
            contexts=contexts,
            workers=n_workers,
            transport=transport_info,
        )

    def _run_sharded(
        self, lanes: list[tuple[int, tuple]], workers: int, shards: Shards
    ) -> tuple[list[FrameContext], dict]:
        # One contiguous shard per worker, each run as one lockstep
        # rank: concatenating shard outputs in shard order reproduces
        # the sequence-major ordering of the in-process mode exactly.
        stats = shards.channel.stats
        before = dict(stats)
        results = shards.map(
            _execute_shard, self, contiguous_shards(lanes, workers)
        )
        moved = {key: stats[key] - before[key] for key in before}
        transport_info = {
            "mode": "shm" if shards.channel.use_shm else "pickle",
            "dispatches": moved["dispatches"],
            "payload_bytes_per_dispatch": (
                moved["dispatch_bytes"] / moved["dispatches"]
            ),
            "segment_bytes_written": moved["segment_bytes"],
            "segments_created": moved["segments_created"],
            "publish_reuses": moved["publish_reuses"],
        }
        contexts = [ctx for shard in results for ctx in shard]
        return contexts, transport_info

    def _run_rank(self, lanes) -> list[FrameContext]:
        """Run ``[(seq_index, fields), ...]`` as one lockstep rank (one
        sequence alone is the width-1 case the width-invariance tests
        compare against)."""
        # Lanes are keyed by *position*, not by sequence index — a
        # repeated index is two independent lanes.
        if not lanes:
            return []
        tracer = current_tracer()
        # Stage name -> [wall seconds, frames, calls], kept only while a
        # tracer (the ambient one, or a shard job's capture) is listening.
        timings = (
            {name: [0.0, 0, 0] for name in self.graph.stage_names}
            if tracer is not None
            else None
        )
        states = [
            self.graph.start_lane(self.state_factory(seq_index))
            for seq_index, _ in lanes
        ]
        contexts = [
            self._contexts_for(seq_index, fields) for seq_index, fields in lanes
        ]
        for t in range(max(len(lane) for lane in contexts)):
            live = [pos for pos, lane in enumerate(contexts) if t < len(lane)]
            rank = [contexts[pos][t] for pos in live]
            self.graph.step(rank, [states[pos] for pos in live], timings)
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
        # Sequence-major order.
        return [ctx for lane in contexts for ctx in lane]
