"""REP102: wall-clock reads inside deterministic modules.

Everything this repository reports — accuracy, telemetry percentiles,
loss trajectories — is pinned bitwise against a scalar reference, so no
deterministic path may read the host's clock (``time.time``,
``perf_counter``, ``datetime.now``): serve latencies are *virtual*-clock
ticks, schedules are spec-driven, and RNG keys are integers.  Under
``src/`` the one sanctioned reader is ``repro.obs.wall``, the clock
behind every trace span: wall time is observability and lands only in a
trace's wall plane, so the engine's stage attribution and the serve
loop's timing are spans, not results.  Timing harnesses outside the
package (benchmarks) read the clock themselves.  Each sanctioned read
carries an inline ``# repro: allow[REP102] <reason>`` waiver, which is
the rule's whitelist.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.base import ParsedModule, Rule, resolve_call
from repro.analysis.lint.findings import Finding

__all__ = ["WallClockRule"]

_WALL_CALLS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "time.localtime",
    "time.gmtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


class WallClockRule(Rule):
    rule_id = "REP102"
    title = "wall-clock read in a deterministic path"
    rationale = (
        "Deterministic outputs are pinned bitwise and may not depend on "
        "the host clock; only timing-measurement seams may read it, each "
        "under an inline reasoned waiver."
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = resolve_call(node, module.imports)
            if name in _WALL_CALLS:
                yield self.finding(
                    module,
                    node,
                    f"wall-clock read {name}() in a deterministic module — "
                    "deterministic outputs may not depend on the host "
                    "clock; timing-measurement seams carry "
                    "`# repro: allow[REP102] <reason>`",
                )
