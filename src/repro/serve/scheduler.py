"""The serving event loop: admission, deadline shedding, micro-batching.

One :class:`Scheduler` owns a FIFO queue of :class:`FrameArrival`\\ s and
walks the virtual clock.  Each tick it

1. **admits** the frames arriving from every client stream, dropping
   beyond the bounded queue (``queue_full``);
2. **sheds** frames that can no longer meet their deadline (``drop``
   policy) instead of wasting host compute on them;
3. **dispatches** up to ``max_batch`` queued frames as one cross-client
   micro-batch through ``StageGraph.step`` — the rank step the offline
   engine's runner uses, over the same vectorized kernels.  Every
   client keeps its own
   :class:`~repro.engine.context.SequenceState` (spawned sensor, fed-back
   segmentation, gaze fallback), and the kernels are bitwise
   batch-invariant, so a client's outputs are identical no matter which
   other clients share its micro-batches — the serve parity tests pin
   this against serving each client alone.

A :class:`~repro.engine.executors.Shards` handle partitions the client
fleet into contiguous shards and runs one independent scheduler
*replica* per worker process through ``Shards.map`` — the
horizontal-scaling story: each replica has its own queue and per-tick
batch budget, exactly like a fleet of serving processes behind a
client-affine load balancer.  Per-client results are unchanged by
partitioning (streams and sensor spawns are keyed by client id), and
merged telemetry summaries are byte-identical to a single scheduler
whenever no queueing interaction occurs (no drops / no waits).
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.engine.context import FrameContext, SequenceState
from repro.engine.executors import Shards
from repro.engine.graphs import SensorSpawnFactory
from repro.engine.runner import contiguous_shards
from repro.engine.stage import StageGraph
from repro.obs.names import SERVE_QUEUE_DEPTH
from repro.obs.tracer import current_tracer
from repro.serve.slo import SLOModel
from repro.serve.streams import (
    SERVE_STREAM_TAG,
    FrameArrival,
    build_streams,
    materialize_arrivals,
)
from repro.serve.telemetry import FrameRecord, Telemetry

__all__ = [
    "ServeScenario",
    "ClientSensorFactory",
    "Scheduler",
    "ServeRun",
    "simulate_serving",
]


@dataclass(frozen=True)
class ServeScenario:
    """A serving scenario: the arrival side plus the SLO knobs.

    Field-compatible with the spec's ``execution.serve`` section —
    field names *and* defaults must match (``repro.api`` passes that
    section straight through, and ``tests/serve`` pins the parity), so
    direct-library users and spec users describe identical scenarios.
    """

    num_clients: int = 4
    arrival: str = "uniform"
    duration_ticks: int = 12
    deadline_policy: str = "drop"
    max_batch: int | None = None
    queue_capacity: int | None = None
    deadline_slack_ticks: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        # Mirrors the spec-level validation for direct-library users who
        # never go through ExperimentSpec.validate().
        if self.num_clients < 1:
            raise ValueError(f"num_clients must be >= 1: {self.num_clients}")
        if self.duration_ticks < 2:
            raise ValueError(
                f"duration_ticks must be >= 2: {self.duration_ticks}"
            )
        if self.max_batch is not None and self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1: {self.max_batch}")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1: {self.queue_capacity}"
            )
        if self.deadline_slack_ticks < 0:
            raise ValueError(
                f"deadline_slack_ticks must be >= 0: "
                f"{self.deadline_slack_ticks}"
            )


def ClientSensorFactory(
    sensor_template, sensor_seed: int
) -> SensorSpawnFactory:
    """The engine's lane factory in the serve RNG namespace: client
    ``c``'s sensor spawns at ``[sensor_seed, SERVE_STREAM_TAG, c]``."""
    return SensorSpawnFactory(
        sensor_template, (sensor_seed, SERVE_STREAM_TAG)
    )


@dataclass
class ServeRun:
    """Everything one serving simulation produced."""

    telemetry: Telemetry
    #: ``(client_id, frame_index, gaze_pred)`` per completed frame, in
    #: dispatch order — the raw material of the per-client parity tests.
    gaze_log: list[tuple[int, int, tuple[float, float]]]
    #: Scheduler replicas the fleet was partitioned into.
    workers: int = 1

    @property
    def summary(self) -> dict:
        return self.telemetry.summary()


class Scheduler:
    """Event-loop over a virtual clock, serving one client partition."""

    def __init__(
        self,
        graph: StageGraph,
        state_factory,
        slo: SLOModel,
        max_batch: int | None = None,
        queue_capacity: int | None = None,
    ):
        if max_batch is not None and max_batch < 1:
            raise ValueError(f"max_batch must be >= 1: {max_batch}")
        if queue_capacity is not None and queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1: {queue_capacity}")
        self.graph = graph
        self.state_factory = state_factory
        self.slo = slo
        self.max_batch = max_batch
        self.queue_capacity = queue_capacity
        self._states: dict[int, SequenceState] = {}

    # -- client admission -----------------------------------------------------
    def _state_for(self, client_id: int) -> SequenceState:
        if client_id not in self._states:
            self._states[client_id] = self.graph.start_lane(
                self.state_factory(client_id)
            )
        return self._states[client_id]

    # -- the loop -------------------------------------------------------------
    def run(
        self,
        arrivals_by_tick: list[list[FrameArrival]],
        telemetry: Telemetry,
    ) -> list[tuple[int, int, tuple[float, float]]]:
        """Serve the scenario; records into ``telemetry``, returns the
        gaze log."""
        # Virtual time: loop iteration t is tick t (its seconds view
        # lives in the SLO's latency arithmetic).
        queue: deque[FrameArrival] = deque()
        gaze_log: list[tuple[int, int, tuple[float, float]]] = []
        tracer = current_tracer()
        for tick, arrivals in enumerate(arrivals_by_tick):
            tick_span = (
                tracer.span("serve.tick", tick=tick, arrivals=len(arrivals))
                if tracer is not None
                else nullcontext()
            )
            with tick_span:
                # 1. Admission control: a bounded queue is the backpressure
                # mechanism — beyond it, load shedding beats unbounded delay.
                admitted = 0
                shed_full = 0
                shed_deadline = 0
                for arrival in arrivals:
                    if (
                        self.queue_capacity is not None
                        and len(queue) >= self.queue_capacity
                    ):
                        telemetry.record_drop(
                            arrival.client_id, tick, "queue_full"
                        )
                        shed_full += 1
                    else:
                        queue.append(arrival)
                        admitted += 1
                # 2./3. Pop up to max_batch serviceable frames, shedding the
                # doomed ones (drop policy) without charging the batch budget.
                budget = (
                    self.max_batch if self.max_batch is not None else len(queue)
                )
                jobs: list[FrameArrival] = []
                while queue and len(jobs) < budget:
                    arrival = queue.popleft()
                    if self.slo.sheds(tick - arrival.tick):
                        telemetry.record_drop(
                            arrival.client_id, tick, "deadline"
                        )
                        shed_deadline += 1
                        continue
                    jobs.append(arrival)
                if jobs:
                    self._dispatch(tick, jobs, telemetry, gaze_log)
                telemetry.record_queue_depth(len(queue))
                if tracer is not None:
                    tracer.count("serve.ticks")
                    if admitted:
                        tracer.count("serve.admitted", admitted)
                    if shed_full:
                        tracer.count("serve.shed.queue_full", shed_full)
                    if shed_deadline:
                        tracer.count("serve.shed.deadline", shed_deadline)
                    if jobs:
                        tracer.count("serve.dispatched", len(jobs))
                    tracer.gauge(SERVE_QUEUE_DEPTH, len(queue), tick=tick)
        # Frames still queued when the scenario ends were admitted but
        # never served; account them as backlog so 'arrived' and the
        # drop-rate denominator cover every frame under overload.
        for arrival in queue:
            telemetry.record_backlog(arrival.client_id)
        return gaze_log

    def _dispatch(
        self,
        tick: int,
        jobs: list[FrameArrival],
        telemetry: Telemetry,
        gaze_log: list,
    ) -> None:
        ctxs = [
            FrameContext(
                seq_index=job.client_id,
                t=job.frame_index,
                frame=job.frame,
                gaze_true=job.gaze_true,
            )
            for job in jobs
        ]
        states = [self._state_for(job.client_id) for job in jobs]
        self.graph.step(ctxs, states)
        for job, ctx in zip(jobs, ctxs):
            wait = tick - job.tick
            error = None
            if not ctx.skipped:
                error = float(
                    np.hypot(
                        ctx.gaze_pred[0] - job.gaze_true[0],
                        ctx.gaze_pred[1] - job.gaze_true[1],
                    )
                )
                gaze_log.append(
                    (
                        job.client_id,
                        job.frame_index,
                        (float(ctx.gaze_pred[0]), float(ctx.gaze_pred[1])),
                    )
                )
            # A skipped frame is the bootstrap: the sensor latched its
            # first analog frame and produced no gaze.
            telemetry.record_frame(
                FrameRecord(
                    client_id=job.client_id,
                    arrival_tick=job.tick,
                    dispatch_tick=tick,
                    latency_s=self.slo.latency_s(wait),
                    met_deadline=self.slo.meets_deadline(wait),
                    bootstrap=ctx.skipped,
                    gaze_error_deg=error,
                )
            )
            ctx.release_intermediates()


# -- simulation entry points --------------------------------------------------
def _serve_partition(bundle: tuple, part: tuple) -> tuple[Telemetry, list]:
    """Run one scheduler replica over a client partition.

    ``bundle`` is what every replica shares — ``(graph, state_factory,
    dataset_cfg)``, the factory carrying the calibrated sensor template
    — and ``part`` is ``(scenario, slo, client_ids)``.  A sharded run
    passes this function to :meth:`~repro.engine.executors.Shards.map`,
    so the bundle ships once and repeated serve runs of one tracker
    reuse its segments.  Streams are rebuilt from their client ids —
    in a sharded run that happens in the worker, which is cheaper than
    pickling frames.
    """
    graph, state_factory, dataset_cfg = bundle
    scenario, slo, client_ids = part
    streams = build_streams(
        dataset_cfg,
        client_ids,
        arrival=scenario.arrival,
        seed=scenario.seed,
    )
    arrivals = materialize_arrivals(streams, scenario.duration_ticks)
    telemetry = Telemetry(
        tick_s=slo.tick_s,
        deadline_s=slo.deadline_s,
        duration_ticks=scenario.duration_ticks,
    )
    scheduler = Scheduler(
        graph,
        state_factory,
        slo,
        max_batch=scenario.max_batch,
        queue_capacity=scenario.queue_capacity,
    )
    return telemetry, scheduler.run(arrivals, telemetry)


def simulate_serving(
    *,
    graph: StageGraph,
    state_factory,
    dataset_cfg,
    scenario,
    slo: SLOModel | None = None,
    shards: Shards | None = None,
    client_ids: list[int] | None = None,
) -> ServeRun:
    """Serve ``scenario``'s client fleet through a tracking stage graph.

    ``scenario`` is a :class:`ServeScenario` or anything field-compatible
    (the spec's ``execution.serve`` section).  Each tick's due frames
    are dispatched as one micro-batch.  A
    :class:`~repro.engine.executors.Shards` handle (the session's pool
    and channel) partitions the fleet into that many independent
    scheduler replicas run through ``Shards.map``; telemetry is
    identical either way.  Telemetry latencies are virtual-clock, hence
    deterministic; the real loop's wall time lives in the trace's
    ``serve.tick`` spans.
    """
    if slo is None:
        slo = SLOModel.from_hardware(
            fps=dataset_cfg.fps,
            slack_ticks=scenario.deadline_slack_ticks,
            policy=scenario.deadline_policy,
        )
    if client_ids is None:
        client_ids = list(range(scenario.num_clients))
    bundle = (graph, state_factory, dataset_cfg)
    n_workers = 1 if shards is None else min(shards.workers, len(client_ids))
    if n_workers < 2:
        return ServeRun(
            *_serve_partition(bundle, (scenario, slo, client_ids)), workers=1
        )
    results = shards.map(
        _serve_partition,
        bundle,
        [
            (scenario, slo, part)
            for part in contiguous_shards(client_ids, n_workers)
        ],
    )
    telemetry, gaze_log = results[0]
    for part_telemetry, part_log in results[1:]:
        telemetry.merge(part_telemetry)
        gaze_log = gaze_log + part_log
    return ServeRun(telemetry=telemetry, gaze_log=gaze_log, workers=n_workers)
