"""``repro.serve`` — the streaming multi-client serving runtime.

Everything below this package evaluates *offline batches*: a dataset of
recorded sequences pushed through the staged engine.  ``repro.serve``
turns the same trained tracker into an *online service*: many concurrent
client eye-streams arrive against a deterministic virtual clock, the
scheduler admits them through a bounded queue, collects the frames due
at each tick, and dispatches them as **cross-client micro-batches**
through the engine's existing batched stage kernels — per-client
``SequenceState`` feedback stays isolated, so every client's results are
bitwise-identical to serving that client alone.

The pieces:

* virtual time: one tick is one camera frame period and all latencies
  are tick counts, so telemetry is deterministic.
* :class:`~repro.serve.streams.ClientStream` — per-client synthetic eye
  streams (``synth.gaze_dynamics``) with uniform / Poisson / trace
  arrival processes and per-client RNG spawns.
* :class:`~repro.serve.slo.SLOModel` — per-frame deadlines derived from
  the modeled hardware latency (``hardware.timing``).
* :class:`~repro.serve.scheduler.Scheduler` — the event loop: admission
  control, deadline shedding, micro-batch dispatch.
* :class:`~repro.serve.telemetry.Telemetry` — p50/p95/p99 latency,
  goodput, drop rate, queue-depth traces.

The front door is :func:`~repro.serve.scheduler.simulate_serving`;
``repro.api`` exposes it as the ``serve`` workload (see
``docs/serving.md``).
"""

from repro.serve.scheduler import (
    ClientSensorFactory,
    Scheduler,
    ServeRun,
    ServeScenario,
    simulate_serving,
)
from repro.serve.slo import SLOModel
from repro.serve.streams import (
    SERVE_STREAM_TAG,
    ClientStream,
    FrameArrival,
    build_streams,
    materialize_arrivals,
)
from repro.serve.telemetry import Telemetry

__all__ = [
    "ClientStream",
    "FrameArrival",
    "SERVE_STREAM_TAG",
    "build_streams",
    "materialize_arrivals",
    "SLOModel",
    "Telemetry",
    "Scheduler",
    "ServeScenario",
    "ServeRun",
    "ClientSensorFactory",
    "simulate_serving",
]
