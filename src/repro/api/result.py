"""The uniform result of every workload: metrics + provenance.

Every path through the front door — CLI subcommands, ``repro run``,
benchmarks, examples — ends in one :class:`RunResult`, and there is
exactly one JSON serializer (:meth:`RunResult.to_dict` /
:meth:`write_json`), so ``--json`` output and programmatic consumers
can never drift apart.  The human-facing half lives here too:
:class:`Table` renders every workload's tables, and
:class:`PaperComparison` prints the benchmarks' paper-vs-measured
blocks.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "RunResult",
    "Table",
    "PaperComparison",
    "git_describe",
]


def git_describe() -> str | None:
    """Provenance stamp of the working tree; ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


@dataclass
class RunResult:
    """What one :meth:`Session.run` produced.

    ``metrics`` is workload-shaped but always JSON-able;
    ``workload_profile`` is the measured per-frame statistics in
    :class:`WorkloadProfile` field form; ``provenance`` pins spec hash,
    seed, workers, git state and the full spec.  Everything but
    ``provenance`` is a pure function of the spec: wall time is
    observability and lives only in a trace (``repro run --trace``).
    ``tables`` are the human-facing renderings — excluded from JSON,
    printed by the CLI and examples.
    """

    workload: str
    metrics: dict
    workload_profile: dict | None = None
    provenance: dict = field(default_factory=dict)
    tables: list[Table] = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "metrics": self.metrics,
            "workload_profile": self.workload_profile,
            "provenance": self.provenance,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path

    def render_tables(self) -> str:
        return "\n\n".join(table.render() for table in self.tables)


class Table:
    """Monospace table with aligned columns."""

    def __init__(self, headers: list[str], title: str = ""):
        if not headers:
            raise ValueError("table needs at least one column")
        self.title = title
        self.headers = list(headers)
        self.rows: list[list[str]] = []

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}"
            )
        self.rows.append([_fmt(c) for c in cells])

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


@dataclass
class PaperComparison:
    """Paper-reported vs measured values for one experiment."""

    experiment: str
    entries: list[tuple[str, str, str]] = field(default_factory=list)

    def add(self, metric: str, paper_value, measured_value) -> None:
        self.entries.append((metric, _fmt(paper_value), _fmt(measured_value)))

    def render(self) -> str:
        table = Table(
            ["metric", "paper", "measured"],
            title=f"[paper-vs-measured] {self.experiment}",
        )
        for metric, paper_value, measured in self.entries:
            table.add_row(metric, paper_value, measured)
        return table.render()

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
