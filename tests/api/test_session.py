"""Session runtime: memoized training, the persistent pool, provenance."""

import json
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.api import ExperimentSpec, Session, SpecError
from repro.engine import SequenceRunner, Shards, Stage

#: The cheapest spec that exercises training + evaluation.
TINY = {
    "workload": "evaluate",
    "dataset": {"num_sequences": 3, "frames_per_sequence": 6},
    "training": {"epochs": 1},
}


@pytest.fixture(scope="module")
def tiny_session():
    with Session() as session:
        session.run(ExperimentSpec.from_dict(TINY))
        yield session


class TestMemoization:
    def test_second_run_does_not_retrain(self, tiny_session):
        before = dict(tiny_session.stats())
        result = tiny_session.run(ExperimentSpec.from_dict(TINY))
        assert (
            tiny_session.stats()["train_cache_misses"]
            == before["train_cache_misses"]
        )
        assert (
            tiny_session.stats()["train_cache_hits"]
            == before["train_cache_hits"] + 1
        )
        assert result.metrics["frames"] > 0

    def test_same_training_hash_shares_pipeline(self, tiny_session):
        # A spec differing only in its execution section reuses the
        # trained pipeline (training-relevant section hash is unchanged).
        other = ExperimentSpec.from_dict(
            {**TINY, "execution": {"eval_indices": [1, 2]}}
        )
        before = tiny_session.stats()["train_cache_misses"]
        tiny_session.run(other)
        assert tiny_session.stats()["train_cache_misses"] == before

    def test_changed_training_section_retrains(self, tiny_session):
        different = ExperimentSpec.from_dict(
            {**TINY, "dataset": {**TINY["dataset"], "seed": 5}}
        )
        before = tiny_session.stats()["train_cache_misses"]
        tiny_session.run(different)
        assert tiny_session.stats()["train_cache_misses"] == before + 1

    def test_repeat_runs_bitwise_identical(self, tiny_session):
        spec = ExperimentSpec.from_dict(TINY)
        a = tiny_session.run(spec)
        b = tiny_session.run(spec)
        assert a.metrics == b.metrics


class TestResultsArePureFunctionsOfTheSpec:
    """Wall time is observability, not a result: two fresh sessions
    running the same specs serialize byte-identical results once the
    provenance stamp (git state, trace accounting) is set aside."""

    SERVE = {
        **TINY,
        "workload": "serve",
        "execution": {"serve": {"num_clients": 4, "duration_ticks": 6}},
    }

    @staticmethod
    def _results() -> list[str]:
        out = []
        with Session() as session:
            for spec in (TINY, TestResultsArePureFunctionsOfTheSpec.SERVE):
                record = session.run(ExperimentSpec.from_dict(spec)).to_dict()
                del record["provenance"]
                out.append(json.dumps(record))
        return out

    def test_evaluate_and_serve_identical_across_fresh_sessions(self):
        first, second = self._results(), self._results()
        assert first[0] == second[0]  # evaluate
        assert first[1] == second[1]  # serve


class TestSystemConfig:
    def test_paper_preset_keeps_sec_v_geometry(self):
        from repro.api.session import system_config
        from repro.api.tracker import paper

        spec = ExperimentSpec.from_dict({"dataset": {"preset": "paper"}})
        config = system_config(spec)
        reference = paper()
        assert config.dataset.num_sequences == reference.dataset.num_sequences
        assert (
            config.dataset.frames_per_sequence
            == reference.dataset.frames_per_sequence
        )
        assert config.joint.epochs == reference.joint.epochs
        assert config.height == 400 and config.width == 640

    def test_explicit_fields_override_paper_preset(self):
        from repro.api.session import system_config

        spec = ExperimentSpec.from_dict(
            {"dataset": {"preset": "paper", "num_sequences": 2}}
        )
        config = system_config(spec)
        assert config.dataset.num_sequences == 2
        assert config.dataset.frames_per_sequence == 60  # preset kept

    def test_blink_rate_override_composes_with_dynamics_preset(self):
        from repro.api.session import LIVELY_DYNAMICS, system_config

        spec = ExperimentSpec.from_dict(
            {"dataset": {"dynamics": "lively", "blink_rate_hz": 2.0}}
        )
        dynamics = system_config(spec).dataset.dynamics
        assert dynamics.blink_rate_hz == 2.0
        assert dynamics.fixation_mean_s == LIVELY_DYNAMICS.fixation_mean_s

    def test_eval_only_sensor_fields_do_not_retrain(self, tiny_session):
        # sensor_seed and reuse_window are applied at evaluate() time;
        # they must hit the training cache, not rebuild it.
        before = tiny_session.stats()["train_cache_misses"]
        tiny_session.run(
            ExperimentSpec.from_dict(
                {**TINY, "sensor": {"sensor_seed": 77, "reuse_window": 2}}
            )
        )
        assert tiny_session.stats()["train_cache_misses"] == before


def _kill_own_worker():
    os.kill(os.getpid(), signal.SIGKILL)


class Probe(Stage):
    name = "probe"

    def process_batch(self, ctxs, seqs):
        for ctx in ctxs:
            ctx.gaze_pred = (float(ctx.seq_index), float(ctx.t))


class Seq:
    frames = np.zeros((3, 4, 4))


class TestPersistentPool:
    def test_no_pool_below_two_workers(self):
        with Session() as session:
            assert session.executor(1) is None
            assert session.stats()["pools_created"] == 0

    def test_pool_created_once_and_reused(self):
        with Session() as session:
            first = session.executor(2)
            second = session.executor(2)
            assert first is second
            assert session.stats()["pools_created"] == 1

    def test_pool_grows_for_more_workers(self):
        with Session() as session:
            small = session.executor(2)
            grown = session.executor(3)
            assert grown is not small
            # Asking for fewer workers keeps the bigger pool.
            assert session.executor(2) is grown
            assert session.stats()["pools_created"] == 2

    def test_broken_pool_is_replaced_not_reused(self):
        with Session() as session:
            pool = session.executor(2)
            with pytest.raises(BrokenProcessPool):
                pool.submit(_kill_own_worker).result(timeout=60)
            assert pool.broken
            fresh = session.executor(2)
            assert fresh is not pool and not fresh.broken
            assert session.stats()["pools_created"] == 2
            assert fresh.submit(int, "7").result(timeout=60) == 7

    def test_close_shuts_pool_down(self):
        session = Session()
        pool = session.executor(2)
        session.close()
        with pytest.raises(RuntimeError):
            pool.submit(int)

    def test_injected_pool_runs_shards(self, traced_stages):
        sequences = [(i, Seq()) for i in (7, 3, 9, 5, 2)]
        solo = SequenceRunner([Probe()]).run(sequences)
        with Session() as session:
            run, stages = traced_stages(
                lambda: SequenceRunner([Probe()]).run(
                    sequences,
                    shards=Shards(
                        session.executor(2), session.transport(), 2
                    ),
                )
            )
        assert [(c.seq_index, c.t, c.gaze_pred) for c in run.contexts] == [
            (c.seq_index, c.t, c.gaze_pred) for c in solo.contexts
        ]
        assert stages["probe"]["frames"] == 15


class TestLifecycle:
    def test_close_is_idempotent(self):
        session = Session()
        session.executor(2)
        session.close()
        session.close()  # second close is a no-op, not an error

    def test_run_after_close_raises_cleanly(self):
        session = Session()
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.run({"workload": "area"})

    def test_executor_after_close_raises_instead_of_reforking(self):
        session = Session()
        session.executor(2)
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.executor(2)
        assert session.pool_workers == 0

    def test_context_manager_reuse_after_close_raises(self):
        session = Session()
        with session:
            pass
        with pytest.raises(RuntimeError, match="closed"):
            with session:
                pass  # pragma: no cover

    def test_pool_shared_across_workload_kinds(self):
        # One pool serves sharded evaluate, serve replicas, and a
        # sharded strategy sweep alike — no per-workload re-forking.
        spec = {
            "workload": "evaluate",
            "dataset": {"num_sequences": 4, "frames_per_sequence": 6},
            "training": {"train_indices": [0, 1], "epochs": 1},
            "execution": {"workers": 2},
        }
        with Session() as session:
            session.run(spec)
            assert session.stats()["pools_created"] == 1
            session.run(
                {
                    **spec,
                    "workload": "serve",
                    "execution": {
                        "workers": 2,
                        "serve": {"num_clients": 4, "duration_ticks": 4},
                    },
                }
            )
            assert session.stats()["pools_created"] == 1
            assert session.pool_workers == 2


class TestBackends:
    def test_grow_while_cached_runs_exist(self):
        # Satellite of the executor-backend work: growing the backend
        # mid-session must drain the old pool (shutdown(wait=True)) and
        # must not invalidate memoized results produced on it — the
        # grown pool replays them bitwise from the cache.
        spec = {
            "workload": "evaluate",
            "dataset": {"num_sequences": 4, "frames_per_sequence": 6},
            "training": {"train_indices": [0, 1], "epochs": 1},
            "execution": {"workers": 2},
        }
        with Session() as session:
            first = session.run(spec)
            misses = session.stats()["train_cache_misses"]
            grown = session.executor(3)  # grow while cached runs exist
            assert grown.max_workers == 3
            assert session.stats()["pools_created"] == 2
            again = session.run(spec)
            assert session.stats()["train_cache_misses"] == misses
            assert again.metrics == first.metrics
            # The grown pool is the one the rerun used (grow-only).
            assert session.pool_workers == 3

    def test_sharded_run_matches_serial(self):
        # Workload-level parity: the same evaluate spec on the pool
        # produces the serial reference's metrics.
        base = {
            "workload": "evaluate",
            "dataset": {"num_sequences": 4, "frames_per_sequence": 6},
            "training": {"train_indices": [0, 1], "epochs": 1},
        }
        results = {}
        for workers in (1, 2):
            with Session() as session:
                results[workers] = session.run(
                    {**base, "execution": {"workers": workers}}
                ).metrics
        assert results[2] == results[1]

    def test_unknown_backend_is_a_spec_error(self):
        # execution.backend is gone: any spec that still names a backend
        # is rejected as an unknown field.
        for backend in ("slurm", "process_pool", "in_process"):
            with pytest.raises(SpecError, match="execution.backend"):
                ExperimentSpec.from_dict(
                    {"execution": {"backend": backend}}
                )

    def test_thread_backend_is_a_spec_error(self):
        # The thread backend raced on the modules' cached activations
        # and was removed; naming it must fail at validation.
        with pytest.raises(SpecError, match="execution.backend"):
            ExperimentSpec.from_dict({"execution": {"backend": "thread"}})


class TestStats:
    def test_stats_reports_memo_accounting(self, tiny_session):
        stats = tiny_session.stats()
        assert stats["memo_entries"] == len(tiny_session._memo)
        assert stats["memo_entries"] > 0
        # Trained pipelines serialize to real bytes.
        assert stats["memo_bytes"] > 1000

    def test_stats_includes_store_occupancy_when_attached(self, tmp_path):
        with Session(store=tmp_path / "store") as session:
            session.run({"workload": "area"})
            stats = session.stats()
        assert stats["store"]["entries"] == 1  # the RunResult
        assert stats["store"]["puts"] == 1


class TestNoiseOverrides:
    def test_noise_overrides_reach_dataset_config(self):
        from repro.api.session import system_config

        spec = ExperimentSpec.from_dict(
            {
                "dataset": {
                    "noise": {"read_noise_electrons": 9.0, "bit_depth": 8}
                }
            }
        )
        noise = system_config(spec).dataset.noise
        assert noise.read_noise_electrons == 9.0
        assert noise.bit_depth == 8
        # Untouched fields keep the physical defaults.
        default = system_config(ExperimentSpec.from_dict({})).dataset.noise
        assert (
            noise.electrons_per_second_full_scale
            == default.electrons_per_second_full_scale
        )

    def test_noise_override_is_hash_covered_and_retrains(self, tiny_session):
        noisy = ExperimentSpec.from_dict(
            {
                **TINY,
                "dataset": {
                    **TINY["dataset"],
                    "noise": {"read_noise_electrons": 40.0},
                },
            }
        )
        base = ExperimentSpec.from_dict(TINY)
        assert noisy.section_hash("dataset") != base.section_hash("dataset")
        before = tiny_session.stats()["train_cache_misses"]
        tiny_session.run(noisy)
        assert tiny_session.stats()["train_cache_misses"] == before + 1


class TestRunEntry:
    def test_accepts_dict(self):
        with Session() as session:
            result = session.run({"workload": "energy"})
        assert result.workload == "energy"

    def test_rejects_other_types(self):
        with Session() as session:
            with pytest.raises(SpecError):
                session.run("energy")

    def test_invalid_spec_rejected_before_dispatch(self):
        with Session() as session:
            with pytest.raises(SpecError, match="workload"):
                session.run({"workload": "nope"})
            assert session.stats()["runs"] == 0

    def test_provenance_stamped(self):
        spec = ExperimentSpec.from_dict({"workload": "area"})
        with Session() as session:
            result = session.run(spec)
        prov = result.provenance
        assert prov["spec_hash"] == spec.spec_hash()
        assert prov["seed"] == spec.dataset.seed
        assert prov["workers"] == 1
        assert prov["spec"] == spec.to_dict()

    def test_json_serializer_round_trips(self, tmp_path):
        import json

        with Session() as session:
            result = session.run({"workload": "latency"})
        path = result.write_json(tmp_path / "out.json")
        data = json.loads(path.read_text())
        assert data["workload"] == "latency"
        assert data["metrics"] == result.metrics
        assert "tables" not in data  # renderings never leak into JSON
