"""The stage protocol and the stage-graph container.

A :class:`Stage` is one node of the per-frame dataflow (eventification,
ROI prediction, sampling, readout, segmentation, gaze regression, stats).
Stages are *shared* across sequences: all cross-frame state lives in the
:class:`~repro.engine.context.SequenceState` handed to every call, so a
single stage instance can serve many sequences in lockstep.

``process_batch`` is a stage's one kernel: it handles the frames of
several sequences at the same timestep (a *rank*).  There is no per-frame
variant — a single frame is a rank of width 1 — so every execution mode
runs the same code, and a kernel's output rows must not depend on the
rank's width or on their neighbours (the engine test suite pins each
sequence run alone, sharded ranks and the full rank against each other
and against checked-in digests).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.engine.context import FrameContext, SequenceState

__all__ = ["Stage", "StageGraph"]


class Stage:
    """One node of the per-frame dataflow."""

    #: Stable identifier used for timing attribution and per-sequence slots.
    name: str = "stage"

    def start_sequence(self, seq: SequenceState) -> None:
        """Reset/initialize per-sequence state before frame 0."""

    def process_batch(
        self,
        ctxs: Sequence[FrameContext],
        seqs: Sequence[SequenceState],
    ) -> None:
        """Process one lockstep timestep across several sequences.

        ``ctxs[i]`` is the current frame of the sequence whose state is
        ``seqs[i]``; never called with a skipped context or an empty rank.
        """
        raise NotImplementedError


class StageGraph:
    """An ordered, validated pipeline of stages.

    The graph is linear — the paper's dataflow is a chain with one feedback
    edge (previous segmentation -> ROI predictor) which is carried through
    ``SequenceState`` rather than a graph edge, keeping execution order
    trivial.  Validation catches the common configuration mistakes early:
    empty graphs, duplicate stage names (which would collide in timing
    attribution and sequence slots), and non-stage objects.
    """

    def __init__(self, stages: Sequence[Stage]):
        stages = list(stages)
        if not stages:
            raise ValueError("a stage graph needs at least one stage")
        names = []
        for stage in stages:
            if not isinstance(stage, Stage):
                raise TypeError(f"not a Stage: {stage!r}")
            names.append(stage.name)
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(f"duplicate stage names: {sorted(dupes)}")
        self.stages = stages

    def __iter__(self) -> Iterator[Stage]:
        return iter(self.stages)

    def __len__(self) -> int:
        return len(self.stages)

    @property
    def stage_names(self) -> list[str]:
        return [s.name for s in self.stages]
