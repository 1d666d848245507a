"""The ``serve`` workload through the declarative front door."""

import json

import pytest

from repro.api import ExperimentSpec, Session

SPEC = {
    "workload": "serve",
    "dataset": {"num_sequences": 3, "frames_per_sequence": 6},
    "training": {"train_indices": [0, 1], "epochs": 1},
    "execution": {"serve": {"num_clients": 4, "duration_ticks": 6}},
}


@pytest.fixture(scope="module")
def session():
    with Session() as session:
        yield session


def test_serve_metrics_shape(session):
    result = session.run(ExperimentSpec.from_dict(SPEC))
    assert result.workload == "serve"
    telemetry = result.metrics["telemetry"]
    for key in ("p50", "p95", "p99"):
        assert telemetry["latency_ms"][key] is not None
    assert "drop_rate" in telemetry
    assert telemetry["frames"]["completed"] > 0
    assert telemetry["frames"]["bootstrap"] == 4  # one per client
    assert len(telemetry["per_client"]) == 4
    assert len(telemetry["queue_depth"]["trace"]) == 6
    assert telemetry["goodput_fps"] > 0
    # The scorecard table renders.
    assert "serving scorecard" in result.render_tables()


def test_serve_deterministic_telemetry_json(session):
    """Same spec + seed -> byte-identical telemetry serialization."""
    spec = ExperimentSpec.from_dict(SPEC)
    a = session.run(spec).metrics["telemetry"]
    b = session.run(spec).metrics["telemetry"]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_serve_seed_changes_telemetry(session):
    base = session.run(ExperimentSpec.from_dict(SPEC)).metrics["telemetry"]
    reseeded_spec = {
        **SPEC,
        "execution": {"serve": {**SPEC["execution"]["serve"], "seed": 9}},
    }
    reseeded = session.run(
        ExperimentSpec.from_dict(reseeded_spec)
    ).metrics["telemetry"]
    assert reseeded["gaze_error_deg"] != base["gaze_error_deg"]


def test_serve_reuses_memoized_training(session):
    before = session.stats()["train_cache_misses"]
    session.run(ExperimentSpec.from_dict(SPEC))
    assert session.stats()["train_cache_misses"] == before


def test_serve_sharded_replicas_match_single(session):
    spec = ExperimentSpec.from_dict(SPEC)
    single = session.run(spec).metrics
    sharded_spec = ExperimentSpec.from_dict(
        {**SPEC, "execution": {**SPEC["execution"], "workers": 2}}
    )
    result = session.run(sharded_spec)
    assert result.metrics["replicas"] == 2
    # Uncontended scenario: replica partitioning must not perturb the
    # metrics (order-insensitive telemetry reductions).
    del result.metrics["replicas"], single["replicas"]
    assert json.dumps(result.metrics, sort_keys=True) == (
        json.dumps(single, sort_keys=True)
    )
