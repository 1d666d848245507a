"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke.py        (or: python -m pytest perfbench/smoke.py)

For each workload in ``BENCHMARK.json`` and each trace mode, runs
``run.py --scale smoke`` and asserts that it passes its output checks and
emits exactly the metrics ``BENCHMARK.json`` names, each with its unit.
Also asserts that, without the program beside it, the benchmark fails
without printing a result.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace),
            "--scale", "smoke",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_every_metric_is_emitted_with_its_unit():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in SPEC[kind]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == expected, (workload, trace)
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), name


def test_fails_without_the_program():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-smoke-") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(
            HERE, Path(tmp) / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = _run(Path(tmp), SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    test_every_metric_is_emitted_with_its_unit()
    test_fails_without_the_program()
    print("perfbench smoke test passed")
