"""Finding and report records: the linter's one output shape.

A :class:`Finding` is one rule violation at one location; a
:class:`LintReport` is everything one ``repro lint`` invocation
produced, with the text and ``--json`` renderings the CLI, CI gate and
tests all consume.  The JSON record is versioned so downstream tooling
can detect shape changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["Finding", "LintReport", "JSON_VERSION"]

#: Version of the ``--json`` record shape.
JSON_VERSION = 2


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class LintReport:
    """Everything one lint run produced."""

    #: Unsuppressed findings — what gates CI.
    findings: list[Finding] = field(default_factory=list)
    #: Findings waived by an inline ``# repro: allow[...]`` comment.
    suppressed: list[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def exit_code(self) -> int:
        """0 when clean, 1 when any unsuppressed finding remains (2 is
        the CLI's usage-error code and never originates here)."""
        return 0 if not self.findings else 1

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return dict(sorted(out.items()))

    def render_text(self) -> str:
        lines = [f.render() for f in self.findings]
        n, m = len(self.findings), self.files_scanned
        extras = []
        if self.suppressed:
            extras.append(f"{len(self.suppressed)} waived")
        tail = f" ({', '.join(extras)})" if extras else ""
        if not lines:
            return f"clean: 0 findings in {m} file(s){tail}"
        lines.append(f"{n} finding(s) in {m} file(s) scanned{tail}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "version": JSON_VERSION,
            "findings": [f.to_dict() for f in self.findings],
            "counts": self.counts(),
            "suppressed": len(self.suppressed),
            "files_scanned": self.files_scanned,
            "exit_code": self.exit_code,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"
