"""The uniform result of every workload: metrics + timings + provenance.

Every path through the front door — CLI subcommands, ``repro run``,
benchmarks, examples — ends in one :class:`RunResult`, and there is
exactly one JSON serializer (:meth:`RunResult.to_dict` /
:meth:`write_json`), so ``--json`` output, ``BENCH_engine.json`` and
programmatic consumers can never drift apart.  The human-facing half
lives here too: :class:`Table` renders every workload's tables, and
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
    "stage_timing_table",
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

    ``metrics`` is workload-shaped but always JSON-able; ``stage_timings``
    is the engine's measured wall-clock attribution (``None`` for
    model-only workloads that execute no frames); ``workload_profile`` is
    the measured per-frame statistics in :class:`WorkloadProfile` field
    form; ``provenance`` pins spec hash, seed, workers, git state and the
    full spec.  ``tables`` are the human-facing renderings — excluded
    from JSON, printed by the CLI and examples.
    """

    workload: str
    metrics: dict
    stage_timings: dict[str, dict] | None = None
    workload_profile: dict | None = None
    provenance: dict = field(default_factory=dict)
    tables: list[Table] = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "metrics": self.metrics,
            "stage_timings": self.stage_timings,
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

    @staticmethod
    def timings_to_dict(stage_timings) -> dict[str, dict] | None:
        """Flatten engine ``StageTiming`` objects for serialization."""
        if stage_timings is None:
            return None
        return {
            name: {
                "seconds": timing.seconds,
                "frames": timing.frames,
                "calls": timing.calls,
                "seconds_per_frame": timing.seconds_per_frame,
            }
            for name, timing in stage_timings.items()
        }


def stage_timing_table(
    stage_timings: dict[str, dict], title: str = "measured wall-clock shares"
) -> Table:
    """Measured per-stage wall-clock shares, in serialized timing form.

    The measured counterpart of the Figs. 13/14 modeled breakdowns: the
    energy/latency models attribute *modeled* joules/seconds per stage,
    this table attributes *measured* engine seconds per stage of the same
    run, so the two print side by side.
    """
    # Sorted operands: the repo-wide reduction convention (REP104) —
    # the share column must not depend on stage-dict insertion order.
    total = sum(t["seconds"] for _, t in sorted(stage_timings.items()))
    table = Table(["engine stage", "ms/frame", "share"], title=title)
    for name, timing in stage_timings.items():
        share = timing["seconds"] / total if total > 0 else 0.0
        table.add_row(
            name,
            round(timing["seconds_per_frame"] * 1e3, 3),
            f"{share:.1%}",
        )
    return table


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
