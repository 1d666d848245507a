"""REP105: mutation of transport-resolved shared-memory payloads.

Worker functions receive their inputs through the transport layer:
``resolve_payload(handle)`` rebuilds a payload around **read-only**
views over shared-memory segments and memoizes the result by content
digest, so the object is *shared by every later dispatch in the
process*.  Writing into it corrupts state that outlives the call —
other shards see the write, or the memoized object silently diverges
from a fresh resolve.  The transport makes shm views raise at runtime
(PR 6); this rule catches the same hazard statically, including the
pickle fallback path where nothing raises.

The analysis is intra-function dataflow: names assigned from a resolve
call (or aliased from one through plain attribute/subscript access) are
tainted; ``+=``, item/slice assignment, ``out=`` arguments and known
in-place methods (``.fill``, ``.sort``, ...) on tainted names are
findings.  Taking an explicit ``.copy()`` produces an untainted value —
that is the sanctioned way to get a writable buffer.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.base import ParsedModule, Rule, base_name, resolve_call
from repro.analysis.lint.findings import Finding

__all__ = ["SharedMutationRule"]

#: Call names whose results are shared/read-only (matched on the leaf,
#: so both ``resolve_payload(...)`` and ``transport.resolve_payload``
#: forms hit).
_TAINT_SOURCES = {"resolve_payload"}
#: ndarray/list methods that mutate their receiver in place.
_MUTATING_METHODS = {
    "fill",
    "sort",
    "put",
    "partition",
    "setfield",
    "setflags",
    "itemset",
    "append",
    "extend",
    "insert",
    "pop",
    "remove",
    "clear",
    "update",
}


def _leaf(call: ast.Call, module: ParsedModule) -> str | None:
    name = resolve_call(call, module.imports)
    if name is not None:
        return name.rsplit(".", 1)[-1]
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_taint_source(node: ast.expr, module: ParsedModule) -> bool:
    return (
        isinstance(node, ast.Call)
        and _leaf(node, module) in _TAINT_SOURCES
    )


def _aliases_taint(node: ast.expr, tainted: set[str]) -> bool:
    """Plain Name/Attribute/Subscript access of a tainted name (views
    share the underlying read-only buffer; a Call like ``x.copy()``
    yields a fresh object and is deliberately *not* an alias)."""
    if isinstance(node, (ast.Attribute, ast.Subscript, ast.Name)):
        name = base_name(node)
        return name is not None and name in tainted
    if isinstance(node, ast.Tuple):
        return any(_aliases_taint(el, tainted) for el in node.elts)
    return False


class SharedMutationRule(Rule):
    rule_id = "REP105"
    title = "in-place write to a transport-resolved payload"
    rationale = (
        "resolve_payload views are read-only shared memory and the "
        "resolved objects are shared across dispatches; mutating them "
        "corrupts state beyond the current call — copy first."
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)

    def _check_function(
        self, module: ParsedModule, func: ast.AST
    ) -> Iterator[Finding]:
        tainted: set[str] = set()
        yield from self._walk_body(module, func.body, tainted)

    def _walk_body(
        self, module: ParsedModule, body: list, tainted: set[str]
    ) -> Iterator[Finding]:
        for stmt in body:
            yield from self._walk_stmt(module, stmt, tainted)

    def _walk_stmt(
        self, module: ParsedModule, stmt: ast.stmt, tainted: set[str]
    ) -> Iterator[Finding]:
        if isinstance(stmt, ast.Assign):
            yield from self._check_calls(module, stmt, tainted)
            taints = _is_taint_source(
                stmt.value, module
            ) or _aliases_taint(stmt.value, tainted)
            for target in stmt.targets:
                yield from self._assign_target(module, target, taints, tainted)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            yield from self._check_calls(module, stmt, tainted)
            taints = _is_taint_source(
                stmt.value, module
            ) or _aliases_taint(stmt.value, tainted)
            yield from self._assign_target(module, stmt.target, taints, tainted)
        elif isinstance(stmt, ast.AugAssign):
            yield from self._check_calls(module, stmt, tainted)
            name = base_name(stmt.target)
            if name in tainted:
                yield self.finding(
                    module,
                    stmt,
                    f"augmented assignment mutates {name!r}, which came "
                    "from a transport resolve — take .copy() before "
                    "writing",
                )
        else:
            yield from self._check_calls(module, stmt, tainted)
            # Recurse into compound statements in source order; taint
            # added inside a branch conservatively survives it.
            for field_body in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, field_body, None)
                if inner:
                    yield from self._walk_body(module, inner, tainted)
            for handler in getattr(stmt, "handlers", []):
                yield from self._walk_body(module, handler.body, tainted)

    def _assign_target(
        self,
        module: ParsedModule,
        target: ast.expr,
        taints: bool,
        tainted: set[str],
    ) -> Iterator[Finding]:
        if isinstance(target, ast.Name):
            if taints:
                tainted.add(target.id)
            else:
                tainted.discard(target.id)
        elif isinstance(target, ast.Tuple):
            for el in target.elts:
                yield from self._assign_target(module, el, taints, tainted)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            name = base_name(target)
            if name in tainted and isinstance(target, ast.Subscript):
                yield self.finding(
                    module,
                    target,
                    f"item assignment into {name!r}, which came from a "
                    "transport resolve — resolved arrays are read-only "
                    "shared views; take .copy() before writing",
                )

    def _check_calls(
        self, module: ParsedModule, stmt: ast.stmt, tainted: set[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg == "out" and _aliases_taint(kw.value, tainted):
                    yield self.finding(
                        module,
                        node,
                        "out= targets a transport-resolved array — "
                        "resolved views are read-only shared memory; "
                        "allocate the output instead",
                    )
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS
            ):
                name = base_name(node.func.value)
                if name is not None and name in tainted:
                    yield self.finding(
                        module,
                        node,
                        f"in-place .{node.func.attr}() on {name!r}, which "
                        "came from a transport resolve — copy before "
                        "mutating",
                    )
