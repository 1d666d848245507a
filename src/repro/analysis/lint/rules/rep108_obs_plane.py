"""REP108: observability-plane discipline in ``repro.obs``.

The tracing layer promises a *deterministic plane* — span names,
hierarchy, counters — that is byte-identical across runs, with every
wall-clock read confined to the single declared seam
(``repro/obs/wall.py``).  Two hazards quietly break that promise:

1. A wall-clock read anywhere else under ``repro/obs/`` smuggles
   nondeterminism into code that the rest of the stack trusts to be
   replay-stable.  REP102 would accept such a read behind an inline
   waiver; inside the obs package the stricter rule applies — the
   *only* sanctioned site is ``wall.py``, so the read must move there.
2. A shard/worker entry point that grabs the ambient tracer
   (``current_tracer``/``install_tracer``) emits spans into a tracer
   that does not exist in the child process — the spans silently
   vanish, or worse, land on a fork-inherited tracer and double-count.
   Cross-process spans must travel the pool capture: the pool runs a
   traced job under ``repro.obs.capture.capture_job``, which returns
   the job's records with its result, and the submit side merges them
   as the result is consumed (``ProcessPoolBackend.submit``).
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

#: Ambient-tracer accessors that must not appear in worker entry points
#: (canonical dotted paths, covering both the ``repro.obs`` re-exports
#: and the defining module).
_AMBIENT_CALLS = {
    "repro.obs.current_tracer",
    "repro.obs.install_tracer",
    "repro.obs.tracer.current_tracer",
    "repro.obs.tracer.install_tracer",
}

#: Worker/shard entry-point naming conventions (see REP103's catalog of
#: the repository's cross-process seams).
_WORKER_SUFFIXES = ("_worker", "_handles", "_shard_job", "_strategy_job")
_WORKER_PREFIXES = ("_execute_shard", "_serve_partition", "_epoch_shard")


def _is_obs_module(module: ParsedModule) -> bool:
    rel = module.rel.replace("\\", "/")
    return "repro/obs/" in rel


def _is_worker_entry(name: str) -> bool:
    return name.endswith(_WORKER_SUFFIXES) or name.startswith(
        _WORKER_PREFIXES
    )


class ObsPlaneRule(Rule):
    rule_id = "REP108"
    title = "observability-plane violation (wall seam / ambient tracer)"
    rationale = (
        "The trace's deterministic plane is byte-pinned: wall-clock "
        "reads in repro.obs belong only in wall.py, and worker entry "
        "points must return spans through capture_job, never touch the "
        "ambient tracer of a process they do not own."
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        yield from self._check_wall_seam(module)
        yield from self._check_worker_ambient(module)

    def _check_wall_seam(self, module: ParsedModule) -> Iterator[Finding]:
        if not _is_obs_module(module):
            return
        rel = module.rel.replace("\\", "/")
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

    def _check_worker_ambient(
        self, module: ParsedModule
    ) -> Iterator[Finding]:
        for func_node in ast.iter_child_nodes(module.tree):
            if not isinstance(
                func_node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if not _is_worker_entry(func_node.name):
                continue
            for node in ast.walk(func_node):
                if not isinstance(node, ast.Call):
                    continue
                name = resolve_call(node, module.imports)
                if name in _AMBIENT_CALLS:
                    yield self.finding(
                        module,
                        node,
                        f"{name.rsplit('.', 1)[1]}() inside worker entry "
                        f"point {func_node.name!r} bypasses the pool "
                        "capture — worker spans must go through "
                        "repro.obs.capture.capture_job, which returns "
                        "them with the job's result for the submit side "
                        "to merge and re-parent",
                    )
