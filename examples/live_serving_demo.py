"""Live serving demo: watch a multi-client fleet tick through the scheduler.

Trains a small tracker through a ``repro.api`` session, then serves a
fleet of synthetic clients against the virtual clock under deliberate
*overload*: more clients arrive per tick than the host's micro-batch
budget can serve, so the queue builds, deadline shedding kicks in, and
the telemetry shows the SLO story (latency percentiles, goodput, drops)
— the scenario family the offline figure reproductions cannot express.

Two runs are compared: a comfortable fleet (every frame served the tick
it arrives) and an overloaded one (batch budget at half the arrival
rate).  Both go through the same ``serve`` workload the CLI runs
(``repro run examples/specs/serve.json``), so the printed scorecards are
the uniform ``RunResult`` tables.

Run:  python examples/live_serving_demo.py
"""

from repro.api import ExperimentSpec, Session

BASE = {
    "workload": "serve",
    "dataset": {
        "num_sequences": 3,
        "frames_per_sequence": 8,
        "eye_scale": 0.7,
        "dynamics": "lively",
    },
    "training": {"train_indices": [0, 1], "epochs": 2},
}


def scenario(**serve) -> ExperimentSpec:
    return ExperimentSpec.from_dict({**BASE, "execution": {"serve": serve}})


def main() -> None:
    comfortable = scenario(num_clients=6, duration_ticks=16)
    overloaded = scenario(
        num_clients=6,
        duration_ticks=16,
        max_batch=3,          # host serves half the arrival rate
        queue_capacity=6,     # bounded admission queue
        deadline_policy="drop",
    )
    print("training (a few seconds)...")
    with Session() as session:  # one training, both scenarios reuse it
        for label, spec in (
            ("comfortable fleet", comfortable),
            ("overloaded fleet", overloaded),
        ):
            result = session.run(spec)
            telemetry = result.metrics["telemetry"]
            print(f"\n=== {label} ===")
            print(result.render_tables())
            trace = telemetry["queue_depth"]["trace"]
            peak = max(trace) if trace else 0
            bars = "".join(
                " ▁▂▃▄▅▆▇█"[min(8, round(8 * d / peak))] if peak else " "
                for d in trace
            )
            print(f"\nqueue depth per tick  |{bars}|  (peak {peak})")
            print(
                "mean gaze error: "
                f"{telemetry['gaze_error_deg']['mean']:.2f} deg over "
                f"{telemetry['frames']['completed']} completed frames"
            )


if __name__ == "__main__":
    main()
