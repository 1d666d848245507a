"""Shared infrastructure of the determinism linter's rules.

Every rule is a class with a stable ``rule_id`` (``REPxxx``), a one-line
``title`` and a ``check(module)`` generator yielding
:class:`~repro.analysis.lint.findings.Finding`\\ s.  Rules operate on a
:class:`ParsedModule` — the file's source, its ``ast`` tree and a
resolved import map — and never import the code under analysis, so the
linter can check files that would fail to import (missing optional
deps, heavy side effects).

Import resolution is the piece every rule shares: ``np.random.rand`` and
``from numpy.random import rand`` must hit the same rule, so
:func:`resolve_call` normalizes a call's dotted name through the
module's import aliases before any rule matches on it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.analysis.lint.findings import Finding

__all__ = [
    "ImportMap",
    "ParsedModule",
    "Rule",
    "resolve_call",
    "resolve_name",
]


@dataclass
class ImportMap:
    """Local name -> canonical dotted path, from the module's imports.

    ``modules`` maps ``import x.y as z`` bindings (``z -> "x.y"``;
    plain ``import x.y`` binds ``x -> "x"``), ``names`` maps
    ``from x.y import f as g`` bindings (``g -> "x.y.f"``).
    """

    modules: dict[str, str] = field(default_factory=dict)
    names: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_tree(cls, tree: ast.Module) -> "ImportMap":
        imap = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        imap.modules[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        imap.modules[root] = root
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:
                    # Relative imports resolve inside this package —
                    # never to ``numpy``/``time``/``random``, the only
                    # modules the rules match on.
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    imap.names[local] = f"{node.module}.{alias.name}"
        return imap


@dataclass
class ParsedModule:
    """One file, parsed once and shared by every rule."""

    path: Path
    #: Display path (repo-relative where possible) used in findings.
    rel: str
    source: str
    tree: ast.Module
    imports: ImportMap

    @classmethod
    def parse(cls, path: Path, rel: str, source: str) -> "ParsedModule":
        tree = ast.parse(source, filename=rel)
        return cls(
            path=path,
            rel=rel,
            source=source,
            tree=tree,
            imports=ImportMap.from_tree(tree),
        )


def resolve_name(node: ast.expr, imports: ImportMap) -> str | None:
    """The canonical dotted name of an attribute chain, or ``None``.

    ``np.random.default_rng`` resolves to
    ``"numpy.random.default_rng"`` when ``np`` aliases ``numpy``;
    chains rooted at anything that is not an imported module/name
    (locals, ``self``) resolve to ``None`` so rules skip them.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = node.id
    if root in imports.modules:
        head = imports.modules[root]
    elif root in imports.names:
        head = imports.names[root]
    else:
        return None
    return ".".join([head, *reversed(parts)])


def resolve_call(call: ast.Call, imports: ImportMap) -> str | None:
    """The canonical dotted name of a call's target, or ``None``."""
    return resolve_name(call.func, imports)


class Rule:
    """Base class: one hazard class, one stable ID."""

    #: Stable identifier (``REP101`` ...); suppression comments key on
    #: it, so it must never be reused for a new meaning (a retired ID
    #: stays retired).
    rule_id: str = ""
    #: One-line summary shown by ``repro lint --list-rules``.
    title: str = ""
    #: Why the hazard matters in this codebase (docs/linting.md carries
    #: the full rationale; this is the short form).
    rationale: str = ""

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ParsedModule, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=module.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )
