"""Compatibility re-exports for ``perfbench/workloads.py``.

The tracker lives in :mod:`repro.api.tracker`; import it from there.
This package keeps only the three names the repository benchmark
imports (``BlissCamPipeline``, ``WorkloadStats``, ``ci``), because
that benchmark is pinned and cannot follow the move.
"""

from repro.api.tracker import BlissCamPipeline, WorkloadStats, ci

__all__ = ["BlissCamPipeline", "WorkloadStats", "ci"]
