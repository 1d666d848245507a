"""Compatibility names for ``perfbench/workloads.py``.

The tracker lives in :mod:`repro.api.tracker`; import it from there.
This package keeps only the three names the repository benchmark
imports (``BlissCamPipeline``, ``WorkloadStats``, ``ci``), because
that benchmark is pinned and cannot follow the move.
"""

from repro.api.tracker import BlissCamPipeline as _Tracker
from repro.api.tracker import WorkloadStats, ci
from repro.engine.executors import Shards

__all__ = ["BlissCamPipeline", "WorkloadStats", "ci"]


class BlissCamPipeline(_Tracker):
    """The tracker, with the keywords the benchmark passes to ``evaluate``.

    Rank width is not an option: ``evaluate`` always runs one lockstep
    rank of every sequence, which is what ``batched=True`` asked for.
    Any other value asked for the removed width-1 mode and is refused.
    ``workers``/``executor``/``transport`` become one
    :class:`~repro.engine.executors.Shards` handle, which refuses any
    combination that cannot shard; ``workers`` of ``None`` or 1 without
    an executor runs in-process.
    """

    def evaluate(
        self,
        *args,
        batched: bool = True,
        workers: int | None = None,
        executor=None,
        transport=None,
        **kwargs,
    ):
        if batched is not True:
            raise ValueError(
                f"batched={batched!r}: the batched option was removed; "
                "evaluate always runs one lockstep rank of every sequence"
            )
        if workers not in (None, 1) or executor is not None:
            kwargs["shards"] = Shards(
                executor, transport, 1 if workers is None else workers
            )
        return super().evaluate(*args, **kwargs)
