"""Compatibility names for ``perfbench/workloads.py``.

The tracker lives in :mod:`repro.api.tracker`; import it from there.
This package keeps only the three names the repository benchmark
imports (``BlissCamPipeline``, ``WorkloadStats``, ``ci``), because
that benchmark is pinned and cannot follow the move.
"""

from repro.api.tracker import BlissCamPipeline as _Tracker
from repro.api.tracker import WorkloadStats, ci

__all__ = ["BlissCamPipeline", "WorkloadStats", "ci"]


class BlissCamPipeline(_Tracker):
    """The tracker, with the ``batched=True`` keyword the benchmark passes.

    Rank width is not an option: ``evaluate`` always runs one lockstep
    rank of every sequence, which is what ``batched=True`` asked for.
    Any other value asked for the removed width-1 mode and is refused.
    """

    def evaluate(self, *args, batched: bool = True, **kwargs):
        if batched is not True:
            raise ValueError(
                f"batched={batched!r}: the batched option was removed; "
                "evaluate always runs one lockstep rank of every sequence"
            )
        return super().evaluate(*args, **kwargs)
