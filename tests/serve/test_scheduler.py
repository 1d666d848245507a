"""Scheduler semantics: admission, deadline shedding, batching, telemetry.

Uses a stub stage graph (no trained tracker) so the queueing behaviour
is tested in isolation and fast; the end-to-end serving path over the
real tracking graph is covered by ``test_parity.py`` and the API tests.
"""

import numpy as np
import pytest

from repro.engine import Stage, StageGraph
from repro.engine.context import SequenceState
from repro.serve import FrameArrival, Scheduler, SLOModel, Telemetry


class EchoStage(Stage):
    """Predicts gaze = (client_id, frame_index); counts batch calls."""

    name = "echo"

    def __init__(self):
        self.batch_sizes: list[int] = []

    def process_batch(self, ctxs, seqs):
        self.batch_sizes.append(len(ctxs))
        for ctx in ctxs:
            ctx.gaze_pred = (float(ctx.seq_index), float(ctx.t))


def arrival(client_id: int, tick: int, frame_index: int = 0) -> FrameArrival:
    return FrameArrival(
        client_id=client_id,
        tick=tick,
        frame_index=frame_index,
        frame=np.zeros((4, 4)),
        gaze_true=np.zeros(2),
        in_blink=False,
        in_saccade=False,
    )


def slo(policy: str = "drop", slack: int = 1) -> SLOModel:
    return SLOModel(
        tick_s=0.01, service_s=0.005, slack_ticks=slack, policy=policy
    )


def run(scheduler, arrivals_by_tick, model=None):
    model = model or scheduler.slo
    telemetry = Telemetry(
        tick_s=model.tick_s,
        deadline_s=model.deadline_s,
        duration_ticks=len(arrivals_by_tick),
    )
    log = scheduler.run(arrivals_by_tick, telemetry)
    return telemetry, log


class TestSLOModel:
    def test_deadline_arithmetic(self):
        model = slo(slack=2)
        assert model.deadline_s == pytest.approx(0.025)
        assert model.latency_s(3) == pytest.approx(0.035)
        assert model.meets_deadline(2) and not model.meets_deadline(3)
        assert model.sheds(3) and not model.sheds(2)
        assert not slo("best_effort").sheds(99)

    def test_from_hardware_uses_timing_model(self):
        from repro.hardware import TimingModel, WorkloadProfile

        model = SLOModel.from_hardware(fps=120.0)
        expected = TimingModel().tracking_latency(
            "BlissCam", WorkloadProfile(), 120.0
        )
        assert model.service_s == pytest.approx(expected.total)
        assert model.tick_s == pytest.approx(1 / 120.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            slo("sometimes")
        with pytest.raises(ValueError):
            slo(slack=-1)


class TestDispatch:
    def test_all_due_frames_form_one_micro_batch(self):
        stage = EchoStage()
        scheduler = Scheduler(StageGraph([stage]), SequenceState, slo())
        telemetry, log = run(
            scheduler, [[arrival(c, 0, 0) for c in range(5)]]
        )
        assert stage.batch_sizes == [5]
        assert log == [(c, 0, (float(c), 0.0)) for c in range(5)]
        assert telemetry.summary()["frames"]["completed"] == 5

    def test_max_batch_caps_per_tick_service(self):
        stage = EchoStage()
        scheduler = Scheduler(
            StageGraph([stage]), SequenceState, slo(slack=9), max_batch=2
        )
        ticks = [[arrival(c, 0, 0) for c in range(5)], [], []]
        telemetry, _ = run(scheduler, ticks)
        assert stage.batch_sizes == [2, 2, 1]
        assert telemetry.queue_depths == [3, 1, 0]

    def test_scalar_dispatch_matches_batched(self):
        """A fleet's micro-batches log what each client served alone
        (one width-1 rank per frame) logs."""
        def ticks(clients):
            return [[arrival(c, t, t) for c in clients] for t in range(2)]

        stage = EchoStage()
        fleet = Scheduler(StageGraph([stage]), SequenceState, slo())
        _, log = run(fleet, ticks(range(3)))
        assert stage.batch_sizes == [3, 3]
        alone = []
        for client in range(3):
            solo = EchoStage()
            scheduler = Scheduler(StageGraph([solo]), SequenceState, slo())
            alone.extend(run(scheduler, ticks([client]))[1])
            assert solo.batch_sizes == [1, 1]
        assert sorted(log) == sorted(alone)

    def test_queue_capacity_drops_admissions(self):
        scheduler = Scheduler(
            StageGraph([EchoStage()]),
            SequenceState,
            slo(),
            max_batch=1,
            queue_capacity=2,
        )
        telemetry, _ = run(scheduler, [[arrival(c, 0, 0) for c in range(5)]])
        summary = telemetry.summary()
        # 5 arrive: 2 admitted, 3 dropped at admission; 1 of the 2 served.
        assert summary["drops_by_reason"] == {"queue_full": 3}
        assert summary["frames"]["completed"] == 1
        assert summary["queue_depth"]["trace"] == [1]

    def test_drop_policy_sheds_doomed_frames(self):
        scheduler = Scheduler(
            StageGraph([EchoStage()]),
            SequenceState,
            slo(slack=0),
            max_batch=1,
        )
        # Two frames arrive at tick 0; capacity 1/tick; zero slack: the
        # queued one is doomed by tick 1 and must be shed, not served.
        telemetry, log = run(
            scheduler, [[arrival(0, 0, 0), arrival(1, 0, 0)], []]
        )
        summary = telemetry.summary()
        assert summary["drops_by_reason"] == {"deadline": 1}
        assert [cid for cid, _, _ in log] == [0]

    def test_best_effort_serves_late_and_records_miss(self):
        scheduler = Scheduler(
            StageGraph([EchoStage()]),
            SequenceState,
            slo("best_effort", slack=0),
            max_batch=1,
        )
        telemetry, log = run(
            scheduler, [[arrival(0, 0, 0), arrival(1, 0, 0)], []]
        )
        summary = telemetry.summary()
        assert summary["frames"]["dropped"] == 0
        assert len(log) == 2
        assert summary["deadline_met"] == 1
        assert summary["deadline_miss_rate"] == pytest.approx(0.5)
        # The late frame's latency includes its one-tick queue wait.
        assert summary["latency_ms"]["max"] == pytest.approx(15.0)

    def test_per_client_state_isolated(self):
        class Accumulate(Stage):
            name = "acc"

            def process_batch(self, ctxs, seqs):
                for ctx, seq in zip(ctxs, seqs):
                    seq.slots["n"] = seq.slots.get("n", 0) + 1
                    ctx.gaze_pred = (float(ctx.seq_index), float(seq.slots["n"]))

        scheduler = Scheduler(StageGraph([Accumulate()]), SequenceState, slo())
        ticks = [[arrival(c, t, t) for c in range(2)] for t in range(3)]
        _, log = run(scheduler, ticks)
        # Each client's counter advances only on its own frames.
        for cid in (0, 1):
            counts = [g[1] for c, _, g in log if c == cid]
            assert counts == [1.0, 2.0, 3.0]

    def test_end_of_run_backlog_counted(self):
        # 5 frames arrive, 1 served per tick over 2 ticks, generous
        # slack: 3 are still queued at the end — they must show up as
        # backlog in 'arrived' (not vanish, not count as drops).
        scheduler = Scheduler(
            StageGraph([EchoStage()]), SequenceState, slo(slack=99),
            max_batch=1,
        )
        telemetry, _ = run(
            scheduler, [[arrival(c, 0, 0) for c in range(5)], []]
        )
        summary = telemetry.summary()
        assert summary["frames"] == {
            "arrived": 5,
            "processed": 2,
            "completed": 2,
            "bootstrap": 0,
            "dropped": 0,
            "backlog": 3,
        }
        assert summary["drop_rate"] == 0.0
        assert summary["per_client"]["4"]["arrived"] == 1
        assert summary["per_client"]["4"]["completed"] == 0

    def test_validation(self):
        graph = StageGraph([EchoStage()])
        with pytest.raises(ValueError):
            Scheduler(graph, SequenceState, slo(), max_batch=0)
        with pytest.raises(ValueError):
            Scheduler(graph, SequenceState, slo(), queue_capacity=0)


class TestServeScenario:
    def test_matches_spec_section_fields_and_defaults(self):
        # ServeScenario is the library-level twin of the spec's
        # execution.serve section; names and defaults must not drift.
        import dataclasses

        from repro.api.spec import ServeSection
        from repro.serve import ServeScenario

        scenario_fields = {
            f.name: f.default for f in dataclasses.fields(ServeScenario)
        }
        section_fields = {
            f.name: f.default for f in dataclasses.fields(ServeSection)
        }
        assert scenario_fields == section_fields

    def test_mirrors_spec_validation(self):
        from repro.serve import ServeScenario

        for kwargs in (
            {"num_clients": 0},
            {"duration_ticks": 1},
            {"max_batch": 0},
            {"queue_capacity": 0},
            {"deadline_slack_ticks": -1},
        ):
            with pytest.raises(ValueError):
                ServeScenario(**kwargs)


class TestTelemetry:
    def test_merge_requires_same_scenario(self):
        a = Telemetry(0.01, 0.02, 4)
        b = Telemetry(0.01, 0.02, 5)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_sums_queue_depths_and_is_order_insensitive(self):
        def part(cids):
            scheduler = Scheduler(
                StageGraph([EchoStage()]), SequenceState, slo()
            )
            return run(
                scheduler, [[arrival(c, 0, 0) for c in cids]]
            )[0]

        whole = part([0, 1, 2, 3]).summary()
        ab, cd = part([0, 1]), part([2, 3])
        ab.merge(cd)
        assert ab.summary() == whole
        dc, ba = part([2, 3]), part([0, 1])
        dc.merge(ba)
        assert dc.summary() == whole

    def test_empty_summary_has_null_latencies(self):
        summary = Telemetry(0.01, 0.02, 0).summary()
        assert summary["latency_ms"]["p50"] is None
        assert summary["frames"]["arrived"] == 0
        assert summary["drop_rate"] == 0.0
