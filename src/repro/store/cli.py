"""``repro store <ls|rm|gc>`` — inspect and maintain an artifact store.

Follows the repository's CLI conventions: ``--json`` writes a
machine-readable record, exit code 0 on success and 2 on usage errors.
Dispatch happens in :func:`repro.cli.main` before the spec-builder
parser runs, exactly like ``repro lint``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.api.result import Table
from repro.store.store import ArtifactStore

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro store",
        description="inspect/maintain a persistent artifact store",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ls = sub.add_parser("ls", help="list entries (least-recently-used first)")
    ls.add_argument("root", help="store directory")
    ls.add_argument("--kind", default=None, help="filter by entry kind")
    ls.add_argument("--json", metavar="PATH", default=None)

    rm = sub.add_parser("rm", help="remove entries by digest prefix")
    rm.add_argument("root", help="store directory")
    rm.add_argument(
        "digests", nargs="*", help="digest prefixes of entries to remove"
    )
    rm.add_argument(
        "--all", action="store_true", help="remove every entry in the store"
    )

    gc = sub.add_parser(
        "gc",
        help="evict stale + least-recently-used entries, purge staging "
        "debris",
    )
    gc.add_argument("root", help="store directory")
    gc.add_argument(
        "--max-bytes", type=int, default=None,
        help="payload byte budget to evict down to (LRU order)",
    )
    gc.add_argument(
        "--max-entries", type=int, default=None,
        help="entry-count budget to evict down to (LRU order)",
    )
    gc.add_argument("--json", metavar="PATH", default=None)
    return parser


def _open_store(root: str) -> ArtifactStore | None:
    """The store at ``root``; ``None`` (after naming the path on stderr)
    when there is no directory there — a mistyped root must not be
    created and reported as an empty store."""
    path = Path(root)
    if not path.is_dir():
        problem = "is not a directory" if path.exists() else "does not exist"
        print(f"store error: {root} {problem}", file=sys.stderr)
        return None
    return ArtifactStore(path)


def _cmd_ls(args: argparse.Namespace) -> int:
    store = _open_store(args.root)
    if store is None:
        return 2
    records = list(store.find(args.kind))
    table = Table(
        ["digest", "kind", "bytes", "format", "key"],
        title=f"artifact store {args.root}",
    )
    for record in records:
        suffix = " (stale)" if record.stale else ""
        table.add_row(
            record.digest[:12],
            record.kind,
            record.nbytes,
            f"{record.format}{suffix}",
            json.dumps(record.key)[:60],
        )
    print(table.render())
    stats = store.stats()
    print(
        f"{stats['entries']} entries, {stats['bytes']} bytes "
        f"({stats['stale_entries']} stale, "
        f"{stats['staging_files']} staging files)"
    )
    if args.json:
        Path(args.json).write_text(
            json.dumps(
                {
                    "entries": [r.to_dict() for r in records],
                    "stats": stats,
                },
                indent=2,
            )
            + "\n"
        )
    return 0


def _cmd_rm(args: argparse.Namespace) -> int:
    if not args.digests and not args.all:
        print(
            "store error: rm needs digest prefixes or --all", file=sys.stderr
        )
        return 2
    store = _open_store(args.root)
    if store is None:
        return 2
    prefixes = [""] if args.all else args.digests
    removed: list[str] = []
    for prefix in prefixes:
        removed.extend(store.remove_prefix(prefix))
    print(f"removed {len(removed)} entries")
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    store = _open_store(args.root)
    if store is None:
        return 2
    report = store.gc(max_bytes=args.max_bytes, max_entries=args.max_entries)
    print(
        f"evicted {len(report['evicted'])} entries, purged "
        f"{len(report['staging_purged'])} staging files; "
        f"{report['entries']} entries / {report['bytes']} bytes remain"
    )
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    return 0


_COMMANDS = {"ls": _cmd_ls, "rm": _cmd_rm, "gc": _cmd_gc}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize --help's 0.
        return int(exc.code or 0)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
