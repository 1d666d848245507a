"""Fig. 2 — mobile GPU capability vs. eye-tracking algorithm demand.

The paper's point: compute throughput of successive Jetson-class mobile
GPUs has outgrown the GFLOPS that state-of-the-art eye-tracking algorithms
need at 120 Hz, so *tracking rate* is not the bottleneck — latency and
energy are.  We regenerate the figure with the MAC counts of our own
implementations (RITnet-style, EdGaze-style, our ViT dense and sparse) at
the paper's 640x400 resolution, against published GPU peak numbers.
"""

import numpy as np

from repro.api.result import PaperComparison, Table
from repro.segmentation import EdGazeNet, RITNet, ViTConfig, ViTSegmenter

#: Published peak FP16 GFLOPS of Nvidia Jetson modules (release year).
JETSON_GFLOPS = {
    "TX1 (2015)": 512,
    "TX2 (2017)": 1330,
    "Xavier (2018)": 11000,
    "Xavier-NX (2020)": 6000,
    "Orin-NX (2023)": 50000,
    "Orin (2023)": 170000,
}

TRACKING_HZ = 120


def algorithm_demands() -> dict[str, float]:
    """GFLOPS required at 120 Hz by our implementations (2 FLOPs per MAC)."""
    rng = np.random.default_rng(0)
    height, width = 400, 640
    ritnet = RITNet(rng, base_channels=16)
    edgaze = EdGazeNet(rng, base_channels=16)
    vit = ViTSegmenter(ViTConfig.paper(height, width), rng)
    sparse_tokens = int(vit.config.tokens * 0.108)
    to_gflops = lambda macs: 2 * macs * TRACKING_HZ / 1e9
    return {
        "RITnet-style (dense)": to_gflops(ritnet.mac_count(height, width)),
        "EdGaze-style (dense)": to_gflops(edgaze.mac_count(height, width)),
        "Our ViT (dense)": to_gflops(vit.mac_count()),
        "Our ViT (sparse, 10.8% tokens)": to_gflops(vit.mac_count(sparse_tokens)),
    }


def test_fig02_gflops(benchmark):
    demands = benchmark(algorithm_demands)

    table = Table(
        ["algorithm / GPU", "GFLOPS"],
        title="Fig. 2 — compute supply vs demand @120 Hz",
    )
    for name, gflops in JETSON_GFLOPS.items():
        table.add_row(f"GPU: {name}", float(gflops))
    for name, gflops in demands.items():
        table.add_row(f"ALG: {name}", round(gflops, 1))
    print()
    print(table.render())

    newest_gpu = max(JETSON_GFLOPS.values())
    cmp = PaperComparison("Fig. 2")
    cmp.add(
        "all algorithms fit the newest mobile GPU",
        "yes",
        "yes" if all(d < newest_gpu for d in demands.values()) else "no",
    )
    cmp.add(
        "sparse ViT demand vs dense (x)",
        ">4 (robustness at 4x fewer MACs vs RITnet)",
        round(demands["Our ViT (dense)"] / demands["Our ViT (sparse, 10.8% tokens)"], 1),
    )
    print(cmp.render())

    assert all(demand < newest_gpu for demand in demands.values())
    # Sparsity must cut the ViT's cost by well over the paper's 4x claim
    # (vs RITnet) and bring it under both the dense ViT and RITnet.
    sparse = demands["Our ViT (sparse, 10.8% tokens)"]
    assert sparse < demands["Our ViT (dense)"] / 4
    assert sparse < demands["RITnet-style (dense)"] / 4
