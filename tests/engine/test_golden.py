"""Checked-in outputs of the engine, recorded before the per-row path went.

Every stage has exactly one kernel, ``process_batch``; a sequential run
is a rank of width 1.  Width invariance (1, 3, full rank) is pinned by
the equivalence and strategy-graph suites, but a change that moved every
width the same way would pass them.  These records close that gap for
the tracking graph, for every registered strategy graph and for the
serve scheduler (whose parity suite compares clients with each other,
so a change that moved every client the same way would pass it too).

Each record has two parts:

* ``digest`` — sha256 over the outputs that do not depend on the BLAS
  build: integer segmentation maps, reuse flags, and the statistics
  computed from pixel counts and integer boxes (compression, sampled and
  ROI fractions, valid tokens, bytes, RLE ratios, ROI IoU) — for serve,
  the telemetry counts, drop records, queue depths and per-client
  completions.  Exact on every host.
* ``floats`` — the gaze predictions (and, for tracking, the truths they
  are scored against; for serve, also the virtual-clock latency
  percentiles).  Gazes pass through GEMMs and a least-squares fit,
  whose last bits belong to the BLAS build and the CPU.  On a host with
  the recording's ``fingerprint`` they must match bit for bit; on any
  other host, within ``FLOAT_TOL`` (relative and absolute).

A deliberate change of the outputs (new random-stream semantics, a
different model) re-records the file with
``PYTHONPATH=src python tests/engine/test_golden.py`` and says so in its
change notes.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import STRATEGIES, ExperimentSpec, Session
from repro.api.tracker import BlissCamPipeline, ci
from repro.engine import SequenceRunner, build_strategy_graph
from repro.gaze.estimation import FittedGazeEstimator
from repro.sampling.strategies import STRATEGY_NAMES
from repro.segmentation.vit import ViTConfig, ViTSegmenter
from repro.serve import ClientSensorFactory, ServeScenario, simulate_serving
from repro.synth.dataset import DatasetConfig, SyntheticEyeDataset

GOLDEN_PATH = Path(__file__).with_name("golden_outputs.json")
EVAL_IDX = [0, 1, 2, 3]
REUSE_WINDOWS = [1, 4]
#: An uncontended fleet, and an overloaded one that sheds on both the
#: queue bound and the deadline and ends with a backlog.
SERVE_SCENARIOS = {
    "uniform": ServeScenario(num_clients=4, duration_ticks=8),
    "overload": ServeScenario(
        num_clients=4, arrival="poisson", duration_ticks=8,
        max_batch=2, queue_capacity=3, deadline_slack_ticks=0,
    ),
}
#: The serve parity suite's tiny tracker: one epoch leaves it predicting
#: a gaze on every served frame (the tracking records' longer-trained
#: pipeline falls back to (0, 0) on every frame).
SERVE_SPEC = {
    "workload": "serve",
    "dataset": {"num_sequences": 3, "frames_per_sequence": 6},
    "training": {"train_indices": [0, 1], "epochs": 1},
}
#: Allowed gaze drift on a host other than the recording's: far above
#: last-bit BLAS differences carried through training and the fit, far
#: below what a changed segmentation map or centroid does to a gaze.
FLOAT_TOL = 1e-7


def fingerprint() -> dict:
    """What decides the last bits of a float result on this host."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": " ".join(
            f"{blas.get('name')} {blas.get('version')} "
            f"{blas.get('openblas configuration', '')}".split()
        ),
        "simd": sorted(config["SIMD Extensions"].get("found", [])),
    }


def _digest(*parts) -> str:
    """sha256 over arrays (raw bytes) and JSON-able values (exact reprs)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.dtype.str.encode())
            h.update(repr(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def make_pipeline():
    pipe = BlissCamPipeline(ci(num_sequences=5, frames_per_sequence=8))
    pipe.train([0, 1])
    return pipe


def make_dataset():
    return SyntheticEyeDataset(
        DatasetConfig(
            height=32, width=32, frames_per_sequence=6, num_sequences=4,
            eye_scale=0.8,
        )
    )


def make_vit():
    return ViTSegmenter(
        ViTConfig(height=32, width=32, patch=8, dim=24, heads=3,
                  depth=1, decoder_depth=1),
        np.random.default_rng(0),
    )


def tracking_record(pipeline, reuse_window: int) -> dict:
    result = pipeline.evaluate([2, 3, 4], reuse_window=reuse_window)
    s = result.stats
    return {
        "digest": _digest(
            s.roi_fractions,
            s.sampled_fractions,
            s.valid_token_fractions,
            s.transmitted_bytes,
            s.rle_ratios,
            s.roi_ious,
        ),
        "floats": {
            "predictions": result.predictions.tolist(),
            "truths": result.truths.tolist(),
        },
    }


def strategy_record(name: str, dataset, segmenter) -> dict:
    estimator = FittedGazeEstimator()
    estimator.fit(
        np.concatenate([dataset[i].segmentations for i in EVAL_IDX]),
        np.concatenate([dataset[i].gazes for i in EVAL_IDX]),
    )
    graph = build_strategy_graph(
        strategy=STRATEGIES[name](4.0, dataset=dataset),
        segmenter=segmenter,
        gaze_estimator=estimator,
        rng=np.random.default_rng(7),
    )
    run = SequenceRunner(graph).run([(i, dataset[i]) for i in EVAL_IDX])
    return {
        "digest": _digest(
            np.stack([ctx.seg_pred for ctx in run.evaluated]).astype(np.int64),
            [float(ctx.stats["compression"]) for ctx in run.evaluated],
            [bool(ctx.seg_reused) for ctx in run.evaluated],
        ),
        "floats": {
            "predictions": [list(ctx.gaze_pred) for ctx in run.evaluated],
        },
    }


def make_serve_pipeline():
    spec = ExperimentSpec.from_dict(SERVE_SPEC)
    with Session() as session:
        return session.pipeline(spec)


def serve_record(pipeline, scenario: ServeScenario) -> dict:
    seed = ExperimentSpec.from_dict(SERVE_SPEC).sensor.sensor_seed
    graph, template = pipeline.tracking_setup(sensor_seed=seed)
    run = simulate_serving(
        graph=graph,
        state_factory=ClientSensorFactory(template, seed),
        dataset_cfg=pipeline.config.dataset,
        scenario=scenario,
    )
    summary = run.summary
    gaze_log = sorted(run.gaze_log)
    counted = ("arrived", "completed", "dropped", "met_deadline")
    return {
        "digest": _digest(
            summary["frames"],
            summary["deadline_met"],
            summary["drops_by_reason"],
            summary["queue_depth"],
            sorted(
                (d.client_id, d.tick, d.reason) for d in run.telemetry.drops
            ),
            {
                cid: {key: client[key] for key in counted}
                for cid, client in summary["per_client"].items()
            },
            [[cid, t] for cid, t, _ in gaze_log],
        ),
        "floats": {
            "predictions": [list(gaze) for _, _, gaze in gaze_log],
            "latency_ms": [
                summary["latency_ms"][key]
                for key in ("p50", "p95", "p99", "mean", "max")
            ],
        },
    }


def record_all() -> dict:
    pipeline, dataset, vit = make_pipeline(), make_dataset(), make_vit()
    serve_pipeline = make_serve_pipeline()
    return {
        "fingerprint": fingerprint(),
        "tracking": {
            str(w): tracking_record(pipeline, w) for w in REUSE_WINDOWS
        },
        "strategy": {
            name: strategy_record(name, dataset, vit) for name in STRATEGY_NAMES
        },
        "serve": {
            name: serve_record(serve_pipeline, scenario)
            for name, scenario in SERVE_SCENARIOS.items()
        },
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def trained_pipeline():
    return make_pipeline()


@pytest.fixture(scope="module")
def serve_pipeline():
    return make_serve_pipeline()


@pytest.fixture(scope="module")
def dataset():
    return make_dataset()


@pytest.fixture(scope="module")
def vit():
    return make_vit()


def assert_matches(actual: dict, expected: dict, same_host: bool) -> None:
    assert actual["digest"] == expected["digest"]
    assert actual["floats"].keys() == expected["floats"].keys()
    tol = 0.0 if same_host else FLOAT_TOL
    for key, values in expected["floats"].items():
        np.testing.assert_allclose(
            np.asarray(actual["floats"][key]), np.asarray(values),
            rtol=tol, atol=tol, err_msg=key,
        )


class TestGoldenOutputs:
    @pytest.mark.parametrize("reuse_window", REUSE_WINDOWS)
    def test_tracking_graph(self, golden, trained_pipeline, reuse_window):
        assert_matches(
            tracking_record(trained_pipeline, reuse_window),
            golden["tracking"][str(reuse_window)],
            golden["fingerprint"] == fingerprint(),
        )

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_strategy_graph(self, golden, name, dataset, vit):
        assert_matches(
            strategy_record(name, dataset, vit),
            golden["strategy"][name],
            golden["fingerprint"] == fingerprint(),
        )

    @pytest.mark.parametrize("name", sorted(SERVE_SCENARIOS))
    def test_serve_scheduler(self, golden, serve_pipeline, name):
        assert_matches(
            serve_record(serve_pipeline, SERVE_SCENARIOS[name]),
            golden["serve"][name],
            golden["fingerprint"] == fingerprint(),
        )

    def test_every_case_recorded(self, golden):
        assert sorted(golden["tracking"]) == sorted(map(str, REUSE_WINDOWS))
        assert sorted(golden["strategy"]) == sorted(STRATEGY_NAMES)
        assert sorted(golden["serve"]) == sorted(SERVE_SCENARIOS)


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_PATH
    out.write_text(json.dumps(record_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
