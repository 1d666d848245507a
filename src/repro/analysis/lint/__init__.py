"""``repro.analysis.lint``: the determinism & cross-process-safety linter.

AST-based checks for the invariants every execution mode in this
repository is pinned against (see docs/linting.md for the catalog):

* **REP101** naked RNG calls outside the keyed-stream convention
* **REP102** wall-clock reads in deterministic modules
* **REP103** unpicklable callables at executor dispatch seams
* **REP104** float reductions over unordered operands
* **REP106** ExperimentSpec fields outside validation/hash coverage
* **REP107** identity-derived artifact-store keys
* **REP108** wall-clock reads in ``repro.obs`` outside ``wall.py``

Exposed as ``repro lint [paths]`` in the CLI and run as a gating CI
step before the tier-1 suite.  Deliberate exceptions carry inline
``# repro: allow[RULE] <reason>`` waivers; the reason is mandatory.
"""

from repro.analysis.lint.base import ParsedModule, Rule
from repro.analysis.lint.findings import JSON_VERSION, Finding, LintReport
from repro.analysis.lint.rules import ALL_RULES
from repro.analysis.lint.runner import (
    LintUsageError,
    collect_files,
    lint_source,
    main,
    run_lint,
)
from repro.analysis.lint.suppress import MALFORMED, collect_suppressions

__all__ = [
    "ALL_RULES",
    "Finding",
    "JSON_VERSION",
    "LintReport",
    "LintUsageError",
    "MALFORMED",
    "ParsedModule",
    "Rule",
    "collect_files",
    "collect_suppressions",
    "lint_source",
    "main",
    "run_lint",
]
