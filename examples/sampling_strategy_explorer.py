"""Compare the seven sampling strategies of Fig. 15 on one scene.

The sweep itself is one declarative ``strategy_sweep`` run through
``repro.api``: the spec names the strategies and the compression target,
the ``Session`` trains a small sparse ViT per strategy (memoized — run
it twice and the second sweep is evaluation-only) and reports gaze error
plus achieved compression.  On top of the sweep, the example renders
each strategy's mask on the same frame — making it visible *why* in-ROI
random sampling wins: the budget lands on the eye, not the cheek.

Note: since moving onto the API this example uses the workload's
canonical configuration — the CI preset's depth-2 ViT and the shared
"lively" dynamics preset — so its absolute numbers differ from the
pre-API version's ad-hoc depth-1 setup; the ranking story is the same.

Run:  python examples/sampling_strategy_explorer.py [compression]
"""

import sys

from repro.api import ExperimentSpec, STRATEGIES, Session
from repro.sampling import STRATEGY_NAMES, eventify
from repro.synth import SyntheticEyeDataset


def mask_ascii(mask, box, height=16) -> list[str]:
    step = max(1, mask.shape[0] // height)
    lines = []
    for r in range(0, mask.shape[0], step):
        row = []
        for c in range(0, mask.shape[1], step):
            if mask[r : r + step, c : c + step].any():
                row.append("o")
            elif box and box[0] <= r < box[2] and box[1] <= c < box[3]:
                row.append("'")
            else:
                row.append(".")
        lines.append("".join(row))
    return lines


def main() -> None:
    compression = float(sys.argv[1]) if len(sys.argv) > 1 else 16.0
    print(f"=== sampling strategies at {compression:g}x compression ===\n")

    spec = ExperimentSpec.from_dict(
        {
            "workload": "strategy_sweep",
            "dataset": {
                "num_sequences": 4,
                "frames_per_sequence": 20,
                "eye_scale": 0.6,
                "dynamics": "lively",
            },
            "strategy": {
                "names": list(STRATEGY_NAMES),
                "compression": compression,
                "train_epochs": 4,
            },
        }
    )
    with Session() as session:
        result = session.run(spec)
    print(result.render_tables())

    # The sweep's numbers came from the engine; the panels below sample
    # one demo frame directly through the same STRATEGIES factories.
    from repro.api.session import system_config
    from repro.api.workloads import strategy_rng

    dataset = SyntheticEyeDataset(system_config(spec).dataset)
    _, eval_idx = dataset.split()
    seq = dataset[eval_idx[0]]
    demo_prev, demo_frame = seq.frames[3], seq.frames[4]
    demo_event = eventify(demo_prev, demo_frame)
    demo_box = seq.roi_boxes[4]

    panels = {}
    for name in STRATEGY_NAMES:
        # Name-keyed stream (not Python's per-process hash()): the
        # panels render identically on every run.
        rng = strategy_rng(0, name)
        strategy = STRATEGIES[name](compression, dataset)
        decision = strategy.sample(demo_frame, demo_event, demo_box, rng)
        panels[name] = mask_ascii(decision.mask, decision.roi_box)

    print("\nmasks on the same frame (o = sampled, ' = in-ROI, . = skipped):\n")
    names = list(panels)
    for start in range(0, len(names), 3):
        group = names[start : start + 3]
        print("   ".join(f"{n[:20]:<20}" for n in group))
        for row in zip(*(panels[n] for n in group)):
            print("   ".join(f"{r:<20}" for r in row))
        print()


if __name__ == "__main__":
    main()
