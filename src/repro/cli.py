"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``run``          execute a declarative experiment spec (JSON file, e.g.
                 ``examples/specs/*.json``); ``--workers N`` overrides
                 ``execution.workers``, ``--store DIR`` attaches a
                 persistent artifact store and ``--resume`` replays
                 completed work from it bitwise, ``--trace [PATH]``
                 records a trace, ``--json PATH`` writes the
                 :class:`~repro.api.RunResult`
``lint``         static determinism & cross-process-safety checks
                 (REP101-REP104, REP106-REP108, see docs/linting.md;
                 gating in CI)
``store``        inspect/maintain a persistent artifact store
                 (``ls``/``rm``/``gc``; see docs/architecture.md)
``trace``        inspect an exported run trace (``summary``/``export``
                 ``--perfetto``/``diff``; see docs/observability.md)

``run`` is the one way to run anything: every experiment, its scale and
its operating point (``execution.fps``, the ``execution.serve``
scenario, ``training.batch_size``, ...) are fields of the spec, handed
to one :class:`~repro.api.Session` — the same front door the
benchmarks and examples use.

Exit codes: 0 success, 2 spec-validation error.  ``lint`` follows the
same convention: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from repro.api import ExperimentSpec, Session, SpecError

__all__ = ["main"]

#: Workloads that train a pipeline before producing output (announce it,
#: or the terminal sits silent for the whole joint training).
_TRAINING_WORKLOADS = {"evaluate", "strategy_sweep", "serve"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="BlissCam reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = sub.add_parser("run", help="execute an ExperimentSpec JSON file")
    cmd.add_argument("spec", help="path to an ExperimentSpec JSON file")
    cmd.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the RunResult (shared serializer) to this path",
    )
    cmd.add_argument(
        "--workers",
        type=int,
        default=None,
        help="override the spec's execution.workers",
    )
    cmd.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="attach a persistent artifact store: trained "
        "pipelines, per-strategy trainings and the RunResult "
        "are written through to this directory",
    )
    cmd.add_argument(
        "--resume",
        action="store_true",
        help="replay completed work from --store instead of "
        "recomputing it (byte-identical results; "
        "provenance.cache_hits records what was skipped)",
    )
    cmd.add_argument(
        "--trace",
        metavar="PATH",
        nargs="?",
        const=True,
        default=None,
        help="record a repro.obs trace of the run (JSONL sink; "
        "default sink trace-<spec_hash>.jsonl, or give a path); "
        "inspect it with `repro trace`",
    )
    # Registered for `repro --help` discoverability only; main()
    # dispatches these to their own parsers before parsing here.
    sub.add_parser(
        "lint",
        add_help=False,
        help="static determinism checks (REP101-REP104, REP106-REP108); "
        "see `repro lint --help`",
    )
    sub.add_parser(
        "store",
        add_help=False,
        help="artifact-store maintenance (ls/rm/gc); "
        "see `repro store --help`",
    )
    sub.add_parser(
        "trace",
        add_help=False,
        help="trace inspection (summary/export/diff); "
        "see `repro trace --help`",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "lint":
        # The linter is spec-free: its own parser, its own exit codes
        # (0 clean / 1 findings / 2 usage error — same convention).
        from repro.analysis.lint import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "store":
        # Store maintenance is spec-free too: its own parser/exit codes.
        from repro.store.cli import main as store_main

        return store_main(argv[1:])
    if argv and argv[0] == "trace":
        # Trace inspection works on exported files, not specs.
        from repro.obs.cli import main as trace_main

        return trace_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        spec = ExperimentSpec.from_file(args.spec)
        if args.workers:  # None or 0 keep the spec's value
            # Re-validate: the override must fail here (exit 2), not as
            # a traceback out of Session.run.
            spec = spec.with_workers(args.workers).validate()
        trace = args.trace
        if trace is True:  # bare --trace: the default file
            trace = f"trace-{spec.spec_hash()}.jsonl"
        if args.resume and not args.store:
            print(
                "spec error: --resume needs --store (nowhere to resume "
                "from)",
                file=sys.stderr,
            )
            return 2
    except (SpecError, OSError) as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    with Session(store=args.store, resume=args.resume, trace=trace) as session:
        if spec.workload in _TRAINING_WORKLOADS:
            print("training...")
        result = session.run(spec)
    print(result.render_tables())
    if trace is not None:
        print(
            f"trace written: {trace} "
            f"({result.provenance['trace']['spans']} spans)"
        )
    if args.json:
        result.write_json(args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
