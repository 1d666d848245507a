"""REP108: observability-plane discipline in ``repro.obs``.

The tracing layer promises a *deterministic plane* — span names,
hierarchy, counters — that is byte-identical across runs, with every
wall-clock read confined to the single declared seam
(``repro/obs/wall.py``).  A wall-clock read anywhere else under
``repro/obs/`` smuggles nondeterminism into code that the rest of the
stack trusts to be replay-stable.  REP102 would accept such a read
behind an inline waiver; inside the obs package the stricter rule
applies — the *only* sanctioned site is ``wall.py``, so the read must
move there.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.base import ParsedModule, Rule, resolve_call
from repro.analysis.lint.findings import Finding
from repro.analysis.lint.rules.rep102_wallclock import _WALL_CALLS

__all__ = ["ObsPlaneRule"]

#: The one module under ``repro/obs/`` allowed to read the host clock.
_WALL_SEAM = "wall.py"


class ObsPlaneRule(Rule):
    rule_id = "REP108"
    title = "wall-clock read in repro.obs outside the wall.py seam"
    rationale = (
        "The trace's deterministic plane is byte-pinned: wall-clock "
        "reads in repro.obs belong only in wall.py, the plane's one "
        "clock seam."
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        rel = module.rel.replace("\\", "/")
        if "repro/obs/" not in rel:
            return
        if rel.endswith(f"/{_WALL_SEAM}") or rel == _WALL_SEAM:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call(node, module.imports)
            if name in _WALL_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"wall-clock read {name}() inside repro.obs but "
                    f"outside {_WALL_SEAM} — the wall plane has exactly "
                    "one clock seam; route the read through "
                    "repro.obs.wall",
                )
