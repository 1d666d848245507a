"""One workload in a fresh interpreter: set up, measure, check, report.

Started by ``run.py`` (never by hand) with ``--spawned-at``, the parent's
``time.monotonic()`` just before the spawn, so ``setup_s`` covers
interpreter start-up and ``import repro`` too.  With ``--role setup`` it
stops once set up; with ``--role run`` it goes on to the measured phase
(starting the untraced run's other set-ups itself) and the checks.
Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": " ".join(str(blas.get("openblas configuration", "")).split()),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def measure(workload, seconds: float, passes: list | None = None) -> list:
    """Append timed passes (at least one) until ``passes`` hold
    ``seconds`` of measured time."""
    passes = [] if passes is None else passes
    while True:
        passes.append(workload.run_pass())
        if sum(p.seconds for p in passes) >= seconds:
            return passes


def summarize(passes) -> dict:
    """Medians over passes, so a few passes slowed by the host do not
    move the figures; tick percentiles are taken within each pass."""

    def over_passes(stat):
        return float(statistics.median(stat(p) for p in passes))

    return {
        "frames_per_s": over_passes(lambda p: p.frames / p.seconds),
        "tick_ms_p50": over_passes(lambda p: np.percentile(p.ticks, 50) * 1e3),
        "tick_ms_p95": over_passes(lambda p: np.percentile(p.ticks, 95) * 1e3),
        "passes": len(passes),
        "ticks": sum(len(p.ticks) for p in passes),
        "pass_s": [p.seconds for p in passes],
    }


def usage() -> dict:
    """CPU and peak memory of this process and its reaped children (the
    pool workers, once the workload has closed its Session)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--deadline", type=float, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import repro.api  # noqa: F401
    from probes import LayerProbe, layer_metrics
    from run import SETUP_RUNS, spawn
    from workloads import WORKLOADS

    setup = {"setup.import_s": time.monotonic() - args.spawned_at}
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    report: dict = {"fingerprint": fingerprint()}
    try:
        for phase, step in (
            ("inputs", workload.make_inputs),
            ("train", workload.train),
            ("warmup", workload.warm_up),
        ):
            start = time.monotonic()
            step()
            setup[f"setup.{phase}_s"] = time.monotonic() - start
        report["setup"] = setup
        report["setup_s"] = time.monotonic() - args.spawned_at
        report["digest"] = workload.reference.digest
        if args.role == "setup":
            return _emit(report)

        if args.trace:
            from repro.obs import Tracer, install_tracer

            untraced = measure(workload, args.seconds / 2)
            probe, tracer = LayerProbe(), Tracer()
            with probe.installed(getattr(workload, "graph", None)):
                with install_tracer(tracer):
                    traced = measure(workload, args.seconds / 2)
            passes = untraced + traced
            layers = layer_metrics(workload, traced, probe, tracer)
            layers["trace.overhead"] = (
                summarize(traced)["frames_per_s"]
                / summarize(untraced)["frames_per_s"]
                - 1.0
            )
            report["layers"] = layers
        else:
            # The measured phase is cut into blocks with the other fresh
            # set-ups in between, so its passes sample the host over the
            # whole run rather than over one stretch of it.
            passes, setups = [], []
            for block in range(1, SETUP_RUNS + 1):
                if block > 1:
                    setups.append(spawn(args, "setup", args.deadline))
                measure(workload, args.seconds * block / SETUP_RUNS, passes)
            report["setups"] = setups
        # Each timed pass and the independent verification count as one
        # operation each; an operation whose outputs differ has failed.
        good = [p for p in passes if workload.check(p)]
        bad = len(passes) - len(good)
        failures = workload.verify()
        report["attempted"] = len(passes) + 1
        report["failed"] = bad + bool(failures)
        if bad:
            failures.append(f"{bad} of {len(passes)} passes changed outputs")
        report["failures"] = failures
        report["measured"] = summarize(good or passes)
        report["outputs"] = workload.outputs()
    finally:
        workload.close()
    report.update(usage())
    report["wall_s"] = time.monotonic() - args.spawned_at
    return _emit(report)


def _emit(report: dict) -> int:
    sys.stdout.write(json.dumps(report) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
