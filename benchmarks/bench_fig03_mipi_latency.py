"""Fig. 3 — MIPI CSI-2 transfer latency vs. image resolution.

Paper claim: by 4K, the per-frame MIPI transfer (~22 ms) alone exceeds the
15 ms end-to-end tracking-latency budget, so it can no longer be hidden by
pipelining — motivating in-sensor data reduction.
"""

from repro.api.result import PaperComparison, Table
from repro.hardware import LATENCY_REQUIREMENT_S, STANDARD_RESOLUTIONS, MipiLink


def mipi_sweep() -> dict[str, float]:
    link = MipiLink()
    return {
        name: link.frame_latency(*hw)
        for name, hw in STANDARD_RESOLUTIONS.items()
    }


def test_fig03_mipi_latency(benchmark):
    latencies = benchmark(mipi_sweep)

    table = Table(
        ["resolution", "latency (ms)", "exceeds 15 ms budget"],
        title="Fig. 3 — MIPI CSI-2 latency vs resolution",
    )
    for name, latency in latencies.items():
        table.add_row(
            name,
            round(latency * 1e3, 2),
            "YES" if latency > LATENCY_REQUIREMENT_S else "no",
        )
    print()
    print(table.render())

    cmp = PaperComparison("Fig. 3")
    cmp.add("4K latency (ms)", 22, round(latencies["4K"] * 1e3, 1))
    cmp.add(
        "first resolution over budget",
        "4K",
        next(n for n, l in latencies.items() if l > LATENCY_REQUIREMENT_S),
    )
    print(cmp.render())

    assert latencies["720P"] < LATENCY_REQUIREMENT_S
    assert latencies["2K"] < LATENCY_REQUIREMENT_S
    assert latencies["4K"] > LATENCY_REQUIREMENT_S
    assert latencies["8K"] > latencies["4K"]
