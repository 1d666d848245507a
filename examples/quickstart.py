"""Quickstart: train and evaluate the full BlissCam pipeline in a minute.

Everything goes through the declarative front door: the experiment is a
JSON spec (``examples/specs/quickstart.json``), a ``Session`` trains the
CI-scale system (synthetic near-eye dataset, ROI predictor, sparse ViT,
functional sensor) exactly once and reuses it across runs, and the
result is the same uniform ``RunResult`` the CLI and benchmarks emit —
tracking accuracy plus the measured in-sensor statistics (compression,
ROI fraction, RLE size).  The session records into a tracer, whose
``engine.stage`` spans give the engine's wall-clock stage attribution.

Run:  python examples/quickstart.py
"""

from pathlib import Path

from repro.api import ExperimentSpec, Session, system_config
from repro.api.result import Table
from repro.obs import Tracer, summarize
from repro.obs.cli import stage_table

SPEC_PATH = Path(__file__).resolve().parent / "specs" / "quickstart.json"


def main() -> None:
    print("=== BlissCam quickstart ===\n")

    spec = ExperimentSpec.from_file(SPEC_PATH)
    print(f"spec: {SPEC_PATH.name} (hash {spec.spec_hash()})")
    print(
        f"scene: {spec.dataset.num_sequences} sequences of "
        f"{spec.dataset.frames_per_sequence} frames @ "
        f"{spec.dataset.fps:.0f} FPS, "
        f"target compression {spec.sensor.compression:g}x"
    )

    tracer = Tracer()
    with Session(trace=tracer) as session:
        print("\n[1/3] joint training (ROI predictor + sparse ViT)...")
        pipeline = session.pipeline(spec)
        train_result = pipeline.train_result
        for epoch, (seg, roi) in enumerate(
            zip(train_result.seg_losses, train_result.roi_losses)
        ):
            print(
                f"  epoch {epoch}: segmentation loss {seg:.3f}, "
                f"ROI loss {roi:.4f}"
            )

        print("\n[2/3] evaluating on held-out sequences (batched lockstep)...")
        # The session reuses the pipeline trained above (same training
        # hash) — run() only executes the staged engine, in vectorized
        # lockstep, bitwise-identical to the sequential loop (see
        # docs/architecture.md and benchmarks/bench_engine_throughput.py).
        result = session.run(spec)
        assert session.stats()["train_cache_hits"] == 1, session.stats()

    print("\n[3/3] results")
    m = result.metrics
    table = Table(["metric", "value"])
    table.add_row("horizontal error (deg)", round(m["horizontal"]["mean"], 2))
    table.add_row("vertical error (deg)", round(m["vertical"]["mean"], 2))
    table.add_row("frames evaluated", m["frames"])
    table.add_row("mean ROI fraction", round(m["mean_roi_fraction"], 3))
    table.add_row("mean sampled fraction", round(m["mean_sampled_fraction"], 3))
    table.add_row("achieved compression (x)", round(m["mean_compression"], 1))
    table.add_row("valid ViT tokens", f"{m['mean_valid_token_fraction']:.1%}")
    table.add_row("ROI IoU vs ground truth", round(m["mean_roi_iou"], 2))
    table.add_row(
        "mean transmitted bytes/frame", int(m["mean_transmitted_bytes"])
    )
    print(table.render())

    config = system_config(spec)
    full_frame_bytes = config.height * config.width * 10 // 8
    saved = 1 - m["mean_transmitted_bytes"] / full_frame_bytes
    print(
        f"\nThe sensor transmitted {saved:.0%} fewer bytes than a full "
        f"{config.height}x{config.width} 10-bit frame ({full_frame_bytes} B)."
    )

    stages = summarize(tracer.to_records())["stages"]
    print()
    print(stage_table(stages, "Per-stage wall-clock attribution").render())

    print(
        f"\nsession stats: {session.stats()} — the second run of the same "
        "spec would retrain nothing."
    )


if __name__ == "__main__":
    main()
