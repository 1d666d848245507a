"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``run``          execute a declarative experiment spec (JSON file);
                 ``--store DIR`` attaches a persistent artifact store and
                 ``--resume`` replays completed work from it bitwise
``quickstart``   train + evaluate the end-to-end pipeline (CI scale;
                 ``--train-batch-size`` selects the training
                 schedule, see docs/training.md)
``serve``        streaming multi-client serving with cross-client
                 micro-batching (``--workers N`` partitions the fleet
                 into scheduler replicas; see docs/serving.md)
``energy``       per-frame energy breakdown of the four variants
``latency``      tracking-latency breakdown of the four variants
``area``         Sec. VI-D area estimate
``power``        headset power-budget report
``sweep-fps``    energy saving vs frame rate
``sweep-node``   energy saving vs process nodes
``lint``         static determinism & cross-process-safety checks
                 (REP101-REP104, REP106-REP108, see docs/linting.md;
                 gating in CI)
``store``        inspect/maintain a persistent artifact store
                 (``ls``/``rm``/``gc``; see docs/architecture.md)
``trace``        inspect an exported run trace (``summary``/``export``
                 ``--perfetto``/``diff``; see docs/observability.md)

Every subcommand is a thin *spec builder*: it assembles an
:class:`~repro.api.ExperimentSpec` and hands it to one
:class:`~repro.api.Session` — the same front door ``repro run
<spec.json>`` exposes directly, and the same code path the benchmarks
and examples use.  ``--json <path>`` writes the uniform
:class:`~repro.api.RunResult` serialization; all hardware commands
accept ``--fps`` (default 120).

Exit codes: 0 success, 2 spec-validation error.  ``lint`` follows the
same convention: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from repro.api import ExperimentSpec, Session, SpecError

__all__ = ["main"]


def _spec_run(args: argparse.Namespace) -> ExperimentSpec:
    return ExperimentSpec.from_file(args.spec)


def _spec_quickstart(args: argparse.Namespace) -> ExperimentSpec:
    training: dict = {}
    # None = flag not passed (keep the preset's value); an explicit
    # `--train-batch-size 1` is a real override, not a no-op.
    if args.train_batch_size is not None:
        training["batch_size"] = args.train_batch_size
    spec: dict = {"workload": "evaluate"}
    if training:
        spec["training"] = training
    return ExperimentSpec.from_dict(spec)


def _spec_serve(args: argparse.Namespace) -> ExperimentSpec:
    return ExperimentSpec.from_dict(
        {
            "workload": "serve",
            # A small tracker is enough to exercise the serving runtime;
            # the scenario knobs are what the subcommand parameterizes.
            "dataset": {
                "num_sequences": 3,
                "frames_per_sequence": 8,
                "dynamics": "lively",
            },
            "training": {"train_indices": [0, 1], "epochs": 2},
            "execution": {
                "serve": {
                    "num_clients": args.clients,
                    "duration_ticks": args.ticks,
                    "arrival": args.arrival,
                    "deadline_policy": args.deadline_policy,
                    **(
                        {"max_batch": args.max_batch}
                        if args.max_batch
                        else {}
                    ),
                }
            },
        }
    )


def _hardware_spec(workload: str):
    def build(args: argparse.Namespace) -> ExperimentSpec:
        return ExperimentSpec.from_dict(
            {"workload": workload, "execution": {"fps": args.fps}}
        )

    return build


_SPEC_BUILDERS = {
    "run": _spec_run,
    "quickstart": _spec_quickstart,
    "serve": _spec_serve,
    "energy": _hardware_spec("energy"),
    "latency": _hardware_spec("latency"),
    "area": _hardware_spec("area"),
    "power": _hardware_spec("power"),
    "sweep-fps": _hardware_spec("fps_sweep"),
    "sweep-node": _hardware_spec("node_sweep"),
}

#: Workloads that train a pipeline before producing output (announce it,
#: or the terminal sits silent for the whole joint training).
_TRAINING_WORKLOADS = {"evaluate", "strategy_sweep", "serve"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="BlissCam reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SPEC_BUILDERS:
        cmd = sub.add_parser(name)
        cmd.add_argument(
            "--json",
            metavar="PATH",
            default=None,
            help="write the RunResult (shared serializer) to this path",
        )
        if name == "run":
            cmd.add_argument("spec", help="path to an ExperimentSpec JSON file")
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
            continue
        if name == "serve":
            cmd.add_argument(
                "--clients", type=int, default=4,
                help="concurrent client eye-streams (default 4)",
            )
            cmd.add_argument(
                "--ticks", type=int, default=12,
                help="virtual-clock frame periods to simulate (default 12)",
            )
            cmd.add_argument(
                "--arrival", default="uniform",
                choices=("uniform", "poisson", "trace"),
                help="client arrival process",
            )
            cmd.add_argument(
                "--deadline-policy", default="drop",
                choices=("drop", "best_effort"),
                help="shed doomed frames, or serve them late",
            )
            cmd.add_argument(
                "--max-batch", type=int, default=0,
                help="host micro-batch capacity per tick (0 = unbounded)",
            )
            cmd.add_argument(
                "--workers", type=int, default=0,
                help="partition the fleet into N scheduler replicas "
                "(0/1 = one scheduler)",
            )
            continue
        if name == "quickstart":
            cmd.add_argument(
                "--train-batch-size", type=int, default=None,
                help="frame pairs per training rank / Adam step (default: "
                "the preset's, 1 — the paper-faithful per-frame stepping; "
                "> 1 batches the joint training, a documented semantic "
                "change)",
            )
        cmd.add_argument("--fps", type=float, default=120.0)
    # Registered for `repro --help` discoverability only; main()
    # dispatches `lint` to the linter's own parser before parsing here.
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
        spec = _SPEC_BUILDERS[args.command](args)
        workers = getattr(args, "workers", None)
        if workers:  # None or 0 keep the spec's value
            # Re-validate: the override must fail here (exit 2), not as
            # a traceback out of Session.run.
            spec = spec.with_workers(workers).validate()
        trace = getattr(args, "trace", None)
        if trace is True:  # bare --trace: the default file
            trace = f"trace-{spec.spec_hash()}.jsonl"
        store = getattr(args, "store", None)
        if getattr(args, "resume", False) and not store:
            print(
                "spec error: --resume needs --store (nowhere to resume "
                "from)",
                file=sys.stderr,
            )
            return 2
    except (SpecError, OSError) as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    with Session(
        store=store, resume=getattr(args, "resume", False), trace=trace
    ) as session:
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
