#!/usr/bin/env python3
"""The repository benchmark: one workload, by name and seed.

    python3 perfbench/run.py --workload track --seed 1 --seconds 10 --trace 0

Runs from the repository root (it imports the program from ``src/``).
Each workload runs in fresh interpreters (see ``child.py``): with
``--trace 0`` it sets up three times and reports the median ``setup_s``
plus the end-to-end metrics of a measured phase of ``--seconds`` in
total, cut into blocks between the set-ups; with
``--trace 1`` it sets up once and reports the per-layer metrics of a
half-untraced, half-traced measured phase.  Metric names and units come
from ``BENCHMARK.json``.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh-interpreter set-ups per untraced run; ``setup_s`` is their median.
SETUP_RUNS = 3
#: Wall budget for all children of one run.
BUDGET_S = 170.0
#: The BLAS thread setting of every child (no threadpoolctl here: the
#: environment is the only control).
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from exc


def git_provenance() -> dict:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}

    def git(*args):
        try:
            out = subprocess.run(
                ["git", *args], cwd=ROOT, env=env, capture_output=True,
                text=True, timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {"commit": commit, "dirty": bool(status) if commit else None}


def spawn(args, role: str, deadline: float) -> dict:
    """Run ``child.py`` to completion; its last stdout line is its report."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role, "--scale", args.scale,
    ]
    env = {**os.environ, **BLAS_ENV}
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [*cmd, "--spawned-at", repr(spawned_at), "--deadline", repr(deadline)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise BenchError(f"{role} child exceeded the time budget")
    finally:
        # Pool workers a crashed child could leave behind.
        _kill_group(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{role} child failed (exit {proc.returncode})")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise BenchError(f"{role} child printed no report: {exc}") from exc


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def end_to_end(reports: list[dict], report: dict) -> dict:
    m = report["measured"]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "frames_per_s": m["frames_per_s"],
        "tick_ms_p50": m["tick_ms_p50"],
        "tick_ms_p95": m["tick_ms_p95"],
        "peak_rss_mb": report["peak_rss_mb"],
        **report["outputs"],
    }


def per_layer(report: dict) -> dict:
    return {
        **report["setup"],
        **report["layers"],
        "proc.cpu_s": report["cpu_s"],
        "proc.cpu_per_wall": report["cpu_s"] / report["wall_s"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="input sizes; 'smoke' is the smoke test's tiny variant",
    )
    args = parser.parse_args()
    deadline = time.monotonic() + BUDGET_S
    try:
        spec = load_spec()
        names = {w["name"] for w in spec["workloads"]}
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(names)}")
        if args.seed < 0 or args.seconds <= 0:
            raise BenchError("--seed must be >= 0 and --seconds > 0")
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        kind = "per_layer" if args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in spec[kind]}

        report = spawn(args, "run", deadline)
        reports = [report, *report.get("setups", [])]
        values = per_layer(report) if args.trace else end_to_end(reports, report)
        missing = sorted(set(units) - set(values))
        if missing:
            raise BenchError(f"workload emitted no value for {missing}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    # Outputs must repeat exactly across fresh interpreters.
    failures = list(report["failures"])
    attempted, failed = report["attempted"], report["failed"]
    if len(reports) > 1:
        attempted += 1
        if len({r["digest"] for r in reports}) != 1:
            failed += 1
            failures.append("outputs differ between fresh interpreters")
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        **git_provenance(),
        **report["fingerprint"],
        "passes": report["measured"]["passes"],
        "ticks": report["measured"]["ticks"],
        "pass_s": [round(s, 4) for s in report["measured"]["pass_s"]],
    }
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    for failure in failures:
        print(f"# CHECK FAILED: {failure}")
    for name, unit in units.items():
        print(f"{name:40s} {values[name]:>16.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
