"""Hardware design-space exploration with the calibrated system models.

Three sweeps a sensor architect would run before committing silicon:

1. **Frame-rate sweep** — the declarative ``fps_sweep`` workload (plus
   per-variant energies and the Fig. 8 feasibility check of the timing
   model: NPU-Full stops keeping up when segmentation no longer fits a
   frame period).
2. **Resolution sweep** — BlissCam's advantage grows with resolution
   because readout + MIPI scale with pixels while its sampled fraction
   stays constant; this is where the paper's "up to 8.2x" headline lives.
3. **Process-node grid** — the ``node_sweep`` workload (Fig. 17), plus a
   finer-grained grid straight from the model.

Sweeps 1 and 3 run through ``repro.api`` — the same specs ``repro run``
takes — so their numbers are the front door's numbers; the custom sweeps
query the models directly.

Run:  python examples/hardware_design_space.py
"""

from dataclasses import replace

from repro.api import ExperimentSpec, Session
from repro.api.result import Table
from repro.hardware import (
    ProcessNodes,
    SystemEnergyModel,
    TimingModel,
    VARIANTS,
    WorkloadProfile,
)


def frame_rate_sweep(session: Session) -> None:
    # A denser sweep than the Fig. 16 default points, so the table shows
    # where NPU-Full stops sustaining the frame rate.
    result = session.run(
        ExperimentSpec.from_dict(
            {
                "workload": "fps_sweep",
                "execution": {
                    "fps_sweep_points": [30, 60, 90, 120, 240, 360, 500]
                },
            }
        )
    )
    model = SystemEnergyModel()
    timing = TimingModel()
    profile = WorkloadProfile()
    table = Table(
        ["FPS"]
        + [f"{v} (uJ)" for v in VARIANTS]
        + ["BlissCam saving", "NPU-Full sustains?"],
        title="1. Frame-rate sweep (energy per frame)",
    )
    for fps_key, saving in result.metrics["savings_by_fps"].items():
        fps = float(fps_key)
        energies = {
            v: model.frame_energy(v, profile, fps).total for v in VARIANTS
        }
        table.add_row(
            int(fps),
            *(round(energies[v] * 1e6, 1) for v in VARIANTS),
            f"{saving:.2f}x",
            str(timing.schedule_feasible("NPU-Full", profile, fps)),
        )
    print(table.render())
    print()


def resolution_sweep() -> None:
    model = SystemEnergyModel()
    table = Table(
        ["sensor", "NPU-Full (uJ)", "BlissCam (uJ)", "saving"],
        title="2. Resolution sweep at 120 FPS (fixed sampled fraction)",
    )
    base = WorkloadProfile()
    for name, (height, width) in {
        "VGA-ish 640x400": (400, 640),
        "720P": (720, 1280),
        "1080P": (1080, 1920),
        "4K": (2160, 3840),
    }.items():
        scale = (height * width) / (base.height * base.width)
        profile = replace(
            base,
            height=height,
            width=width,
            seg_macs_dense=int(base.seg_macs_dense * scale),
            dram_bytes_dense=int(base.dram_bytes_dense * scale),
        )
        full = model.frame_energy("NPU-Full", profile, 120).total
        bliss = model.frame_energy("BlissCam", profile, 120).total
        table.add_row(
            name,
            round(full * 1e6, 1),
            round(bliss * 1e6, 1),
            f"{full / bliss:.2f}x",
        )
    print(table.render())
    print("   (the paper's 'up to 8.2x' appears at the high-resolution end)")
    print()


def node_grid(session: Session) -> None:
    # The Fig. 17 grid through the front door...
    result = session.run(ExperimentSpec.from_dict({"workload": "node_sweep"}))
    print("3. " + result.tables[0].render())
    print()

    # ...and a finer-grained grid straight from the model.
    profile = WorkloadProfile()
    logic_nodes = (16, 22, 28, 40, 65)
    soc_nodes = (7, 16, 22)
    table = Table(
        ["logic \\ SoC"] + [f"{soc} nm" for soc in soc_nodes],
        title="   finer grid (BlissCam saving)",
    )
    for logic in logic_nodes:
        row = []
        for soc in soc_nodes:
            m = SystemEnergyModel(ProcessNodes(sensor_logic_nm=logic, host_nm=soc))
            row.append(f"{m.savings_over('NPU-Full', 'BlissCam', profile, 120):.2f}x")
        table.add_row(f"{logic} nm", *row)
    print(table.render())


def main() -> None:
    print("=== BlissCam hardware design-space exploration ===\n")
    with Session() as session:
        frame_rate_sweep(session)
        resolution_sweep()
        node_grid(session)


if __name__ == "__main__":
    main()
