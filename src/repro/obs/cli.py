"""``repro trace <summary|export|diff>`` — inspect exported traces.

Follows the repository's CLI conventions: ``--json`` writes a
machine-readable record, exit code 0 on success and 2 on usage errors
(``diff`` additionally exits 1 when the deterministic planes differ).
Dispatch happens in :func:`repro.cli.main` before the spec-builder
parser runs, exactly like ``repro lint`` and ``repro store``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.api.result import Table
from repro.obs.export import (
    TraceFormatError,
    deterministic_plane,
    perfetto_events,
    read_trace,
    summarize,
)

__all__ = ["main", "stage_table"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="inspect traces exported by `repro run --trace`",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summary = sub.add_parser(
        "summary",
        help="top-N spans by wall time + stage/counter/gauge tables",
    )
    summary.add_argument("trace", help="JSONL trace file")
    summary.add_argument(
        "--top", type=int, default=10, help="span rows to show (default 10)"
    )
    summary.add_argument("--json", metavar="PATH", default=None)

    export = sub.add_parser(
        "export", help="convert a trace to another viewer format"
    )
    export.add_argument("trace", help="JSONL trace file")
    export.add_argument(
        "--perfetto",
        metavar="PATH",
        required=True,
        help="write Chrome/Perfetto trace_event JSON here",
    )

    diff = sub.add_parser(
        "diff",
        help="compare two traces' deterministic planes (exit 1 on drift)",
    )
    diff.add_argument("left", help="baseline JSONL trace")
    diff.add_argument("right", help="candidate JSONL trace")
    diff.add_argument(
        "--max-lines", type=int, default=10,
        help="differing records to print (default 10)",
    )
    return parser


def stage_table(stages: dict[str, dict], title: str = "engine stages") -> Table:
    """Render :func:`~repro.obs.export.summarize`'s ``stages`` block.

    The measured counterpart of the Figs. 13/14 modeled breakdowns:
    wall seconds per stage, per frame, and as a share of all stages.
    """
    # Sorted operands (REP104): the share column must not depend on the
    # block's insertion order.
    total = sum(stage["wall_s"] for _, stage in sorted(stages.items()))
    table = Table(
        ["stage", "count", "calls", "frames", "wall_s", "ms/frame", "share"],
        title=title,
    )
    for name, stage in stages.items():
        frames = stage["frames"]
        table.add_row(
            name,
            stage["count"],
            stage["calls"],
            frames,
            f"{stage['wall_s']:.6f}",
            round(stage["wall_s"] / frames * 1e3, 3) if frames else 0.0,
            f"{stage['wall_s'] / total:.1%}" if total > 0 else "-",
        )
    return table


def _load(path: str) -> list[dict] | None:
    try:
        return read_trace(path)
    except TraceFormatError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return None


def _cmd_summary(args: argparse.Namespace) -> int:
    records = _load(args.trace)
    if records is None:
        return 2
    report = summarize(records, top=args.top)
    table = Table(
        ["span", "count", "wall_s", "mean_wall_s"],
        title=f"trace {args.trace} (origin={report['origin']})",
    )
    for row in report["spans"]:
        table.add_row(
            row["name"],
            row["count"],
            f"{row['wall_s']:.6f}",
            f"{row['mean_wall_s']:.6f}",
        )
    print(table.render())
    print(
        f"{report['spans_total']} spans ({report['span_names']} names, "
        f"{report['spans_dropped']} dropped)"
    )
    if report["stages"]:
        print(stage_table(report["stages"]).render())
    if report["counters"]:
        counter_table = Table(["counter", "value"], title="counters")
        for name, value in report["counters"].items():
            counter_table.add_row(name, value)
        print(counter_table.render())
    if report["gauges"]:
        gauge_table = Table(
            ["gauge", "samples", "min", "max"], title="gauges"
        )
        for name, series in report["gauges"].items():
            gauge_table.add_row(
                name, series["samples"], series["min"], series["max"]
            )
        print(gauge_table.render())
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    records = _load(args.trace)
    if records is None:
        return 2
    payload = perfetto_events(records)
    out = Path(args.perfetto)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload) + "\n")
    print(f"wrote {len(payload['traceEvents'])} events to {out}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    left = _load(args.left)
    right = _load(args.right)
    if left is None or right is None:
        return 2
    left_lines = [
        json.dumps(record, sort_keys=True)
        for record in deterministic_plane(left)
    ]
    right_lines = [
        json.dumps(record, sort_keys=True)
        for record in deterministic_plane(right)
    ]
    if left_lines == right_lines:
        print(
            f"deterministic planes identical "
            f"({len(left_lines)} records)"
        )
        return 0
    print(
        f"deterministic planes differ: {len(left_lines)} vs "
        f"{len(right_lines)} records"
    )
    shown = 0
    for i in range(max(len(left_lines), len(right_lines))):
        lhs = left_lines[i] if i < len(left_lines) else "<missing>"
        rhs = right_lines[i] if i < len(right_lines) else "<missing>"
        if lhs == rhs:
            continue
        print(f"record {i}:")
        print(f"  - {lhs}")
        print(f"  + {rhs}")
        shown += 1
        if shown >= args.max_lines:
            remaining = sum(
                1
                for j in range(i + 1, max(len(left_lines), len(right_lines)))
                if (left_lines[j] if j < len(left_lines) else None)
                != (right_lines[j] if j < len(right_lines) else None)
            )
            if remaining:
                print(f"... {remaining} more differing records")
            break
    return 1


_COMMANDS = {"summary": _cmd_summary, "export": _cmd_export, "diff": _cmd_diff}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize --help's 0.
        return int(exc.code or 0)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
