"""Serving parity: micro-batching and sharding never change results.

The load-bearing guarantees of ``repro.serve``, pinned over the *real*
trained tracking graph:

* serving a client inside a multiplexed fleet — its frames in
  cross-client micro-batches — is bitwise-identical to serving that
  client alone (per-client state + RNG spawns isolated, and the
  engine's batch-invariance contract);
* partitioning the fleet into scheduler replicas (workers >= 2) changes
  neither per-client results nor, for an uncontended fleet, the merged
  telemetry summary;
* the whole simulation is deterministic: same scenario, same bytes.
"""

import json

import pytest

from repro.api import ExperimentSpec, Session
from repro.serve import ClientSensorFactory, ServeScenario, simulate_serving

TINY = {
    "workload": "serve",
    "dataset": {"num_sequences": 3, "frames_per_sequence": 6},
    "training": {"train_indices": [0, 1], "epochs": 1},
}

SCENARIO = ServeScenario(num_clients=4, duration_ticks=6)


@pytest.fixture(scope="module")
def serving():
    """(graph, state factory, dataset config) of a tiny trained tracker."""
    spec = ExperimentSpec.from_dict(TINY)
    with Session() as session:
        pipeline = session.pipeline(spec)
    graph, template = pipeline.tracking_setup()
    factory = ClientSensorFactory(template, spec.sensor.sensor_seed)
    return graph, factory, pipeline.config.dataset


def serve(serving, **kwargs):
    graph, factory, dataset_cfg = serving
    return simulate_serving(
        graph=graph,
        state_factory=factory,
        dataset_cfg=dataset_cfg,
        scenario=kwargs.pop("scenario", SCENARIO),
        **kwargs,
    )


def test_multiplexed_equals_each_client_alone(serving):
    fleet = serve(serving)
    alone = []
    for client_id in range(SCENARIO.num_clients):
        alone.extend(serve(serving, client_ids=[client_id]).gaze_log)
    assert sorted(fleet.gaze_log) == sorted(alone)
    assert len(fleet.gaze_log) > 0


def test_micro_batch_dispatch_has_no_per_row_stage(serving):
    """Every stage of the served tracking graph implements the one stage
    kernel, ``process_batch``, which every micro-batch calls."""
    from repro.engine.stage import Stage

    graph, _, _ = serving
    for stage in graph.stages:
        assert type(stage).process_batch is not Stage.process_batch, (
            type(stage).__name__
        )


def test_replica_partitioning_preserves_results(serving, sharding):
    single = serve(serving)
    sharded = serve(serving, shards=sharding)
    assert sharded.workers == 2
    assert sorted(sharded.gaze_log) == sorted(single.gaze_log)
    # Uncontended fleet (no queueing interaction): merged replica
    # telemetry summarizes byte-identically to one scheduler.
    assert json.dumps(sharded.summary, sort_keys=True) == json.dumps(
        single.summary, sort_keys=True
    )


def test_deterministic_telemetry_bytes(serving):
    a = json.dumps(serve(serving).summary, sort_keys=True)
    b = json.dumps(serve(serving).summary, sort_keys=True)
    assert a == b


def test_overload_drops_and_queues(serving):
    scenario = ServeScenario(
        num_clients=4,
        duration_ticks=6,
        max_batch=2,
        queue_capacity=3,
        deadline_policy="drop",
    )
    summary = serve(serving, scenario=scenario).summary
    assert summary["frames"]["dropped"] > 0
    assert summary["drop_rate"] > 0
    assert summary["queue_depth"]["max"] > 0
    assert set(summary["drops_by_reason"]) <= {"queue_full", "deadline"}
