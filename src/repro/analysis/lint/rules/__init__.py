"""The rule registry: one instance of every shipped rule.

Rules are ordered by ID; the runner applies all of them to every file.
A retired ID (REP105) stays unused.
Adding a rule = adding a module here and registering its instance, with
a catalog entry in docs/linting.md and fixture tests in
``tests/analysis/``.
"""

from __future__ import annotations

from repro.analysis.lint.rules.rep101_rng import NakedRNGRule
from repro.analysis.lint.rules.rep102_wallclock import WallClockRule
from repro.analysis.lint.rules.rep103_shard_jobs import ShardJobRule
from repro.analysis.lint.rules.rep104_reductions import UnorderedReductionRule
from repro.analysis.lint.rules.rep106_spec_drift import SpecDriftRule
from repro.analysis.lint.rules.rep107_store_keys import StoreKeyRule
from repro.analysis.lint.rules.rep108_obs_plane import ObsPlaneRule

__all__ = ["ALL_RULES"]

ALL_RULES = (
    NakedRNGRule(),
    WallClockRule(),
    ShardJobRule(),
    UnorderedReductionRule(),
    SpecDriftRule(),
    StoreKeyRule(),
    ObsPlaneRule(),
)
