"""REP103: unpicklable shard jobs at executor dispatch seams.

Every cross-process dispatch in this repository (``shards.map``,
``executor.submit``, ``pool.map``) must ship a **module-level
callable**: lambdas and nested ``def``\\ s do not pickle, and
``self.method`` drags the whole instance across the pipe.  The engine's
closures became plain classes for exactly this reason, and every
worker entry point is a module-level function: the one submitted
entry, ``_shard_worker`` in ``repro.engine.executors``, and the jobs
each site passes to ``Shards.map`` (``_execute_shard`` in the engine
runner, ``_serve_partition`` in the serving scheduler,
``_sweep_strategy_job`` in the strategy sweep).  The failure is
especially treacherous because the in-process ``workers=1`` path never
exercises pickling — the bug only detonates on a sharded host.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.base import ParsedModule, Rule
from repro.analysis.lint.findings import Finding

__all__ = ["ShardJobRule"]

#: Receiver-name fragments that make a ``.map`` call a pool dispatch
#: (``.submit`` is distinctive on its own; ``.map`` is not).  ``shards``
#: and ``sharding`` name :class:`repro.engine.executors.Shards` handles.
_POOLISH = ("executor", "pool", "shards", "sharding")


def _receiver_text(func: ast.Attribute) -> str:
    node = func.value
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts)).lower()


def _local_callables(func_node: ast.AST) -> set[str]:
    """Names bound to nested defs/lambdas/classes inside one function."""
    local: set[str] = set()
    for node in ast.walk(func_node):
        if node is func_node:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local.add(node.name)
        elif isinstance(node, ast.Assign) and isinstance(
            node.value, ast.Lambda
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    local.add(target.id)
    return local


class ShardJobRule(Rule):
    rule_id = "REP103"
    title = "unpicklable callable at an executor dispatch seam"
    rationale = (
        "Cross-process jobs must be module-level callables; lambdas, "
        "nested defs and bound methods fail to pickle only when sharding "
        "is actually on, which CI's workers=1 paths never exercise."
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for func_node in ast.walk(module.tree):
            if not isinstance(
                func_node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            local = _local_callables(func_node)
            for node in ast.walk(func_node):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                ):
                    continue
                attr = node.func.attr
                if attr == "submit":
                    pass
                elif attr == "map" and any(
                    hint in _receiver_text(node.func) for hint in _POOLISH
                ):
                    pass
                else:
                    continue
                job = node.args[0] if node.args else next(
                    (kw.value for kw in node.keywords if kw.arg == "job"),
                    None,
                )
                if job is not None:
                    yield from self._check_job(module, job, attr, local)

    def _check_job(
        self, module: ParsedModule, job: ast.expr, seam: str, local: set[str]
    ) -> Iterator[Finding]:
        if isinstance(job, ast.Lambda):
            yield self.finding(
                module,
                job,
                f"lambda passed to .{seam}() cannot pickle to a worker "
                "process — move the job to a module-level function",
            )
        elif isinstance(job, ast.Name) and job.id in local:
            yield self.finding(
                module,
                job,
                f"nested callable {job.id!r} passed to .{seam}() cannot "
                "pickle to a worker process — hoist it to module level",
            )
        elif isinstance(job, ast.Attribute):
            base = job.value
            if isinstance(base, ast.Name) and base.id in ("self", "cls"):
                yield self.finding(
                    module,
                    job,
                    f"bound method {base.id}.{job.attr} passed to "
                    f".{seam}() ships the whole instance with every "
                    "dispatch — use a module-level function taking "
                    "explicit arguments",
                )
        elif isinstance(job, ast.Call):
            # functools.partial(fn, ...): check the wrapped callable.
            if job.args:
                yield from self._check_job(module, job.args[0], seam, local)
