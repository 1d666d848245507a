"""The lint runner: collect files, apply rules, render the report.

``run_lint(paths)`` is the library entry (the self-check test and any
programmatic caller), ``lint_source(source)`` lints one in-memory
snippet (the fixture tests), and ``main(argv)`` is the CLI behind
``repro lint`` with the documented exit-code convention:

* **0** — clean (no unsuppressed findings)
* **1** — findings
* **2** — usage error (missing path, bad flags)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.lint.base import ParsedModule, Rule
from repro.analysis.lint.findings import Finding, LintReport
from repro.analysis.lint.rules import ALL_RULES
from repro.analysis.lint.suppress import collect_suppressions

__all__ = ["LintUsageError", "collect_files", "lint_source", "main", "run_lint"]


class LintUsageError(ValueError):
    """Bad invocation (exit code 2), as opposed to findings (exit 1)."""


def collect_files(paths: list[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Sorted traversal keeps report order independent of filesystem
    enumeration — the linter holds itself to its own REP104 discipline.
    """
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            out.append(path)
        elif path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        else:
            raise LintUsageError(f"no such file or directory: {path}")
    seen: set[Path] = set()
    unique = []
    for path in out:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def _lint_module(
    module: ParsedModule, rules: tuple[Rule, ...]
) -> tuple[list[Finding], list[Finding]]:
    """(live, suppressed) findings of one parsed module."""
    sup = collect_suppressions(module.rel, module.source)
    live: list[Finding] = list(sup.malformed)
    suppressed: list[Finding] = []
    raw: list[Finding] = []
    for rule in rules:
        raw.extend(rule.check(module))
    for finding in raw:
        if sup.waives(finding.line, finding.rule):
            suppressed.append(finding)
        else:
            live.append(finding)
    live.sort(key=lambda f: (f.line, f.col, f.rule))
    return live, suppressed


def lint_source(
    source: str,
    filename: str = "<memory>",
    rules: tuple[Rule, ...] = ALL_RULES,
) -> list[Finding]:
    """Lint one in-memory snippet; returns unsuppressed findings."""
    module = ParsedModule.parse(Path(filename), filename, source)
    live, _ = _lint_module(module, rules)
    return live


def run_lint(
    paths: list[str | Path],
    rules: tuple[Rule, ...] = ALL_RULES,
) -> LintReport:
    """Lint files/directories and return the full report."""
    report = LintReport()
    for path in collect_files(paths):
        try:
            source = path.read_text()
            module = ParsedModule.parse(path, str(path), source)
        except (OSError, SyntaxError, ValueError) as exc:
            report.findings.append(
                Finding(
                    rule="REP000",
                    path=str(path),
                    line=1,
                    col=1,
                    message=f"cannot lint file: {exc}",
                )
            )
            report.files_scanned += 1
            continue
        live, suppressed = _lint_module(module, rules)
        report.findings.extend(live)
        report.suppressed.extend(suppressed)
        report.files_scanned += 1
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Static determinism & cross-process-safety checks "
            "(REP101-REP104, REP106-REP108; see docs/linting.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the machine-readable findings record ('-' = stdout)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize --help's 0.
        return int(exc.code or 0)
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.title}")
            print(f"        {rule.rationale}")
        return 0
    try:
        report = run_lint(args.paths)
    except LintUsageError as exc:
        print(f"lint usage error: {exc}", file=sys.stderr)
        return 2
    if args.json == "-":
        print(report.to_json(), end="")
    else:
        print(report.render_text())
        if args.json:
            Path(args.json).write_text(report.to_json())
    return report.exit_code
