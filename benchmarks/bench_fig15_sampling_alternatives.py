"""Fig. 15 — in-ROI pseudo-random sampling vs. six alternatives.

Paper claims: (1) ROI-based strategies beat full-frame strategies (the
budget is spent where the information is); (2) at ~21x compression only
ours and ROI+Learned stay below the 1-degree threshold, and ROI+Learned
needs an extra in-sensor DNN so ours wins on cost; (3) uniform in-ROI
sampling (ROI+DS) is worse than random — the compressed-sensing argument.

Reproduced live with a shared ViT backbone architecture retrained per
strategy.  Absolute errors are CI-scale; the claim under test is the
grouping: ours and ROI+Learned in the best group at high compression.
"""

import zlib

import numpy as np

from _helpers import BENCH_EPOCHS, bench_dataset, bench_vit, once
from repro.api import STRATEGIES
from repro.api.result import PaperComparison, Table
from repro.api.tracker import evaluate_strategy, train_for_strategy
from repro.sampling import STRATEGY_NAMES

COMPRESSIONS = [5.0, 21.0]


def run_fig15():
    dataset = bench_dataset(seed=7)
    train_idx, eval_idx = dataset.split()
    results: dict[str, list] = {}
    for name in STRATEGY_NAMES:
        per_compression = []
        for compression in COMPRESSIONS:
            rng = np.random.default_rng(
                zlib.crc32(f"fig15|{name}|{compression}".encode())
            )
            segmenter = bench_vit(int(compression))
            strategy = STRATEGIES.get(name)(compression, dataset)
            train_for_strategy(
                segmenter, strategy, dataset, train_idx, BENCH_EPOCHS, rng
            )
            per_compression.append(
                evaluate_strategy(strategy, segmenter, dataset, eval_idx, rng)
            )
        results[name] = per_compression
    return results


def test_fig15_sampling_alternatives(benchmark):
    results = once(benchmark, run_fig15)

    table = Table(
        ["strategy"] + [f"horz err @{c:g}x" for c in COMPRESSIONS],
        title="Fig. 15 — horizontal angular error vs compression (deg)",
    )
    for name, evals in results.items():
        table.add_row(
            name, *(round(e.horizontal.mean, 2) for e in evals)
        )
    print()
    print(table.render())

    def combined(name, idx):
        e = results[name][idx]
        return e.horizontal.mean + e.vertical.mean

    high = {name: combined(name, 1) for name in STRATEGY_NAMES}
    ours = high["Ours (ROI+Random)"]
    learned = high["ROI+Learned"]
    full_random = high["Full+Random"]
    full_ds = high["Full+DS"]
    ranked = sorted(high, key=high.get)

    cmp = PaperComparison("Fig. 15 @ ~21x compression")
    cmp.add("best-group strategies", "ours, ROI+Learned", ", ".join(ranked[:2]))
    cmp.add(
        "ours beats full-frame strategies",
        "yes",
        "yes" if ours < min(full_random, full_ds) else "no",
    )
    cmp.add("ours combined err (deg)", "<2 (their scale: <1)", round(ours, 2))
    cmp.add("ROI+Learned combined err (deg)", "close to ours", round(learned, 2))
    print(cmp.render())

    # Claim (1): the budget belongs in the ROI.
    assert ours < min(full_random, full_ds)
    # Claim (2): ours is in the top-3 strategies at high compression (the
    # paper's top-2 grouping, with one rank of CI noise slack).
    assert "Ours (ROI+Random)" in ranked[:3]
