"""Ablations on the eventification stage.

Two design choices the paper makes and defends qualitatively:

* **sigma = 15/255** — "empirically yields good results" (Sec. III-A).
  The sweep shows the trade-off: lower thresholds fire on shot noise
  (density explodes, precision drops), higher thresholds start missing
  the moving foreground (recall drops).
* **no dF/F normalization** — classic event cameras normalize by the
  previous pixel value; the paper drops the divider because it
  "complicates the sensor hardware without noticeable accuracy benefits"
  (Sec. VII).  We verify the foreground-localization quality of the two
  formulations is comparable on near-eye scenes.
"""

from _helpers import bench_dataset, once
from repro.analysis import normalization_ablation, sigma_sensitivity
from repro.api.result import PaperComparison, Table
from repro.sampling import DEFAULT_SIGMA

SIGMAS = [2 / 255, 8 / 255, 15 / 255, 30 / 255, 60 / 255]


def run_ablation():
    dataset = bench_dataset(seed=11)
    return (
        sigma_sensitivity(dataset, SIGMAS),
        normalization_ablation(dataset),
    )


def test_eventification_ablation(benchmark):
    sigma_rows, norm_results = once(benchmark, run_ablation)

    table = Table(
        ["sigma (x255)", "event density", "box recall", "precision"],
        title="Ablation — eventification threshold sweep",
    )
    for row in sigma_rows:
        table.add_row(
            round(row["sigma"] * 255, 1),
            round(row["density"], 4),
            round(row["recall"], 3),
            round(row["precision"], 3),
        )
    print()
    print(table.render())

    table2 = Table(
        ["formulation", "box recall", "precision", "density"],
        title="Ablation — plain vs normalized eventification",
    )
    for name, stats in norm_results.items():
        table2.add_row(
            name,
            round(stats["recall"], 3),
            round(stats["precision"], 3),
            round(stats["density"], 4),
        )
    print(table2.render())

    plain = norm_results["plain |dF| > sigma (ours)"]
    normalized = norm_results["normalized dF/F (event camera)"]
    at_default = next(r for r in sigma_rows if abs(r["sigma"] - DEFAULT_SIGMA) < 1e-9)

    cmp = PaperComparison("eventification ablations")
    cmp.add("sigma=15 box recall", "high (usable ROI cue)", round(at_default["recall"], 2))
    cmp.add(
        "normalization accuracy benefit",
        "none noticeable",
        f"recall delta {normalized['recall'] - plain['recall']:+.3f}",
    )
    print(cmp.render())

    # Density must fall monotonically as the threshold rises.
    densities = [r["density"] for r in sigma_rows]
    assert all(a >= b for a, b in zip(densities, densities[1:]))
    # The default threshold keeps a usable cue: decent recall, sane density.
    assert at_default["recall"] > 0.5
    assert at_default["density"] < 0.5
    # Sec. VII claim: normalization does not meaningfully improve the cue.
    assert normalized["recall"] < plain["recall"] + 0.1
