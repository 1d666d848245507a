"""The benchmark's four workloads, driven through the program's public API.

Each workload owns its inputs and exposes the same life cycle:

``make_inputs``  render the recordings / client streams (``setup.inputs_s``)
``train``        train the tracker the workload needs (``setup.train_s``)
``warm_up``      one untimed pass; its outputs become the reference that
                 every timed pass must reproduce bitwise (``setup.warmup_s``)
``run_pass``     one timed pass -> :class:`Pass`
``verify``       untimed checks against an independent reference path
``outputs``      the deterministic end-to-end metrics of the reference

What the seed varies.  The tracking workloads evaluate a *fixed* panel of
eye recordings with a tracker trained in set-up on fixed calibration
recordings; the seed picks the sensor instance (its SRAM power-up
fingerprint, pixel noise and sampling draws), so quality metrics are
comparable across seeds.  The ``train`` workload trains on recordings
generated from the seed, from fixed initial weights.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.api import Session
from repro.core import BlissCamPipeline, WorkloadStats, ci
from repro.hardware import SystemEnergyModel, TimingModel
from repro.serve import (
    ClientSensorFactory,
    Scheduler,
    ServeScenario,
    SLOModel,
    Telemetry,
    build_streams,
    materialize_arrivals,
    simulate_serving,
)
from repro.training.joint import JointTrainer

#: Seed of the fixed recordings (calibration set + evaluation panel) and
#: of the tracker's initial weights.
PANEL_SEED = 0
#: Seed of the fixed serving scenario (client eyes and Poisson arrivals).
SCENARIO_SEED = 0
#: Seed of the ``train`` workload's per-sample training streams.
TRAIN_STREAM_SEED = 0
#: Frame rate of the recordings and of the energy/latency models.
FPS = 120.0
#: Pool workers of ``track_sharded``.
WORKERS = 2


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``smoke`` runs every code path in a few seconds."""

    frames: int
    calib_sequences: int
    panel_sequences: int
    epochs: int
    train_sequences: int
    clients: int
    ticks: int


SCALES = {
    "full": Scale(
        frames=24,
        calib_sequences=4,
        panel_sequences=24,
        epochs=2,
        train_sequences=4,
        clients=8,
        ticks=200,
    ),
    "smoke": Scale(
        frames=6,
        calib_sequences=2,
        panel_sequences=3,
        epochs=1,
        train_sequences=2,
        clients=2,
        ticks=12,
    ),
}


@dataclass
class Pass:
    """One timed pass over a workload's inputs."""

    seconds: float
    #: Frames finished (gaze outputs, or frame pairs trained).
    frames: int
    #: Digest of every output the pass produced.
    digest: str
    #: Host seconds per tick: one per scheduler tick for ``serve``, one
    #: for the whole pass otherwise.
    ticks: list[float]
    #: Program results the per-layer metrics read (stage timings,
    #: transport accounting).
    info: dict = field(default_factory=dict)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def tracker_config(scale: Scale, sequences: int, seed: int = PANEL_SEED):
    """The CI-scale system (64x64 frames) with the scale's epochs.

    Initial weights always come from ``PANEL_SEED``; ``seed`` only picks
    the recordings.
    """
    config = ci(
        seed=PANEL_SEED,
        num_sequences=sequences,
        frames_per_sequence=scale.frames,
        fps=FPS,
    )
    return replace(
        config,
        dataset=replace(config.dataset, seed=seed),
        joint=replace(config.joint, epochs=scale.epochs),
    )


def quality(stats: WorkloadStats, gaze_err_deg: float) -> dict:
    """Tracking quality and the hardware models fed the measured profile."""
    profile = stats.to_profile()
    energy = SystemEnergyModel().frame_energy("BlissCam", profile, FPS).total
    latency = TimingModel().tracking_latency("BlissCam", profile, FPS).total
    return {
        "gaze_err_deg": gaze_err_deg,
        "compression_x": stats.mean_compression,
        "tx_bytes_per_frame": float(np.mean(stats.transmitted_bytes)),
        "sim_energy_uj_per_frame": energy * 1e6,
        "sim_latency_ms": latency * 1e3,
    }


class Workload:
    name = ""

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.scale_name = scale
        self.scale = SCALES[scale]
        self.reference: Pass | None = None
        #: Per-frame workload statistics of the reference pass.
        self.stats: WorkloadStats | None = None

    def make_inputs(self) -> None:
        raise NotImplementedError

    def train(self) -> None:
        pass

    def warm_up(self) -> None:
        self.reference = self.run_pass()

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def check(self, p: Pass) -> bool:
        return p.digest == self.reference.digest

    def verify(self) -> list[str]:
        return []

    def outputs(self) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Track(Workload):
    """Offline tracking of the panel as one lockstep rank, in-process."""

    name = "track"

    def make_inputs(self) -> None:
        s = self.scale
        config = tracker_config(s, s.calib_sequences + s.panel_sequences)
        self.pipeline = BlissCamPipeline(config)
        for index in range(config.dataset.num_sequences):
            self.pipeline.dataset[index]
        self.calib = list(range(s.calib_sequences))
        self.panel = list(range(s.calib_sequences, config.dataset.num_sequences))

    def train(self) -> None:
        self.train_result = self.pipeline.train(self.calib)

    def sharding(self) -> dict:
        return {}

    def evaluate(self, sharding: dict) -> Pass:
        start = time.perf_counter()
        result = self.pipeline.evaluate(
            self.panel, sensor_seed=self.seed, batched=True, **sharding
        )
        seconds = time.perf_counter() - start
        digest = _digest(
            result.predictions,
            result.stats.transmitted_bytes,
            result.stats.sampled_fractions,
        )
        return Pass(
            seconds=seconds,
            frames=len(result.predictions),
            digest=digest,
            ticks=[seconds],
            info={"result": result},
        )

    def run_pass(self) -> Pass:
        return self.evaluate(self.sharding())

    def warm_up(self) -> None:
        super().warm_up()
        self.stats = self.reference.info["result"].stats

    def outputs(self) -> dict:
        result = self.reference.info["result"]
        errors = np.hypot(*(result.predictions - result.truths).T)
        return {
            **quality(result.stats, float(np.mean(errors))),
            "final_seg_loss": self.train_result.seg_losses[-1],
        }


class TrackSharded(Track):
    """``track`` on the Session's persistent pool and shared-memory channel."""

    name = "track_sharded"

    def make_inputs(self) -> None:
        super().make_inputs()
        self.session = Session()

    def sharding(self) -> dict:
        return {
            "workers": WORKERS,
            "executor": self.session.executor(WORKERS),
            "transport": self.session.transport(),
        }

    def verify(self) -> list[str]:
        in_process = self.evaluate({})
        if in_process.digest != self.reference.digest:
            return ["sharded outputs differ from the in-process run"]
        return []

    def close(self) -> None:
        if hasattr(self, "session"):
            self.session.close()


class TickTimer:
    """The per-tick arrivals as an iterable that stamps the host clock
    each time the scheduler takes the next tick, so consecutive stamps
    bound the host time of one tick."""

    def __init__(self, arrivals: list):
        self.arrivals = arrivals
        self.stamps: list[float] = []

    def __iter__(self):
        for batch in self.arrivals:
            self.stamps.append(time.perf_counter())
            yield batch

    def durations(self, end: float) -> list[float]:
        return np.diff(self.stamps + [end]).tolist()


class Serve(Workload):
    """Client eye-streams replayed tick by tick through one scheduler."""

    name = "serve"

    def make_inputs(self) -> None:
        s = self.scale
        config = tracker_config(s, s.calib_sequences)
        self.pipeline = BlissCamPipeline(config)
        for index in range(s.calib_sequences):
            self.pipeline.dataset[index]
        # Open loop in virtual time: every arrival is fixed up front and
        # never waits on service.
        self.scenario = ServeScenario(
            num_clients=s.clients,
            arrival="poisson",
            duration_ticks=s.ticks,
            seed=SCENARIO_SEED,
        )
        streams = build_streams(
            config.dataset,
            list(range(s.clients)),
            arrival=self.scenario.arrival,
            seed=self.scenario.seed,
        )
        self.arrivals = materialize_arrivals(streams, s.ticks)

    def train(self) -> None:
        calib = list(range(self.scale.calib_sequences))
        self.train_result = self.pipeline.train(calib)

    def warm_up(self) -> None:
        self.graph, template = self.pipeline.tracking_setup(
            sensor_seed=self.seed
        )
        self.factory = ClientSensorFactory(template, self.seed)
        sc = self.scenario
        self.slo = SLOModel.from_hardware(
            fps=FPS,
            slack_ticks=sc.deadline_slack_ticks,
            policy=sc.deadline_policy,
        )
        # The warm-up pass also records each frame's workload statistics
        # (the stats stage's output), which the scheduler does not keep.
        stats_stage = next(s for s in self.graph if s.name == "stats")
        process_batch = stats_stage.process_batch
        self.stats = WorkloadStats()

        def record(ctxs, seqs):
            process_batch(ctxs, seqs)
            for ctx in ctxs:
                self.stats.record(**ctx.stats)

        stats_stage.process_batch = record
        try:
            super().warm_up()
        finally:
            del stats_stage.process_batch

    def run_pass(self) -> Pass:
        sc = self.scenario
        telemetry = Telemetry(
            tick_s=self.slo.tick_s,
            deadline_s=self.slo.deadline_s,
            duration_ticks=sc.duration_ticks,
        )
        scheduler = Scheduler(
            self.graph,
            self.factory,
            self.slo,
            max_batch=sc.max_batch,
            queue_capacity=sc.queue_capacity,
        )
        timer = TickTimer(self.arrivals)
        start = time.perf_counter()
        gaze_log = scheduler.run(timer, telemetry)
        end = time.perf_counter()
        summary = telemetry.summary()
        return Pass(
            seconds=end - start,
            frames=len(gaze_log),
            digest=_digest(gaze_log, summary),
            ticks=timer.durations(end),
            info={"gaze_log": gaze_log, "summary": summary},
        )

    def verify(self) -> list[str]:
        run = simulate_serving(
            graph=self.graph,
            state_factory=self.factory,
            dataset_cfg=self.pipeline.config.dataset,
            scenario=self.scenario,
            slo=self.slo,
        )
        ref = self.reference.info
        failures = []
        if run.gaze_log != ref["gaze_log"]:
            failures.append("gaze log differs from simulate_serving")
        if run.summary != ref["summary"]:
            failures.append("telemetry differs from simulate_serving")
        return failures

    def outputs(self) -> dict:
        gaze = self.reference.info["summary"]["gaze_error_deg"]["mean"]
        return {
            **quality(self.stats, gaze),
            "final_seg_loss": self.train_result.seg_losses[-1],
        }


class Train(Workload):
    """Joint training from fixed weights, per-frame Adam steps."""

    name = "train"

    def make_inputs(self) -> None:
        s = self.scale
        self.config = tracker_config(s, s.train_sequences, seed=self.seed)
        pipeline = BlissCamPipeline(self.config)
        self.dataset = pipeline.dataset
        self.indices = list(range(s.train_sequences))
        pairs = sum(len(self.dataset[i]) - 1 for i in self.indices)
        self.frames = pairs * self.config.joint.epochs
        self.roi, self.seg = pipeline.roi_predictor, pipeline.segmenter
        self.initial = (self.roi.state_dict(), self.seg.state_dict())

    def run_pass(self) -> Pass:
        self.roi.load_state_dict(self.initial[0])
        self.seg.load_state_dict(self.initial[1])
        start = time.perf_counter()
        trainer = JointTrainer(
            self.roi,
            self.seg,
            self.config.joint,
            np.random.default_rng(TRAIN_STREAM_SEED),
        )
        result = trainer.train(self.dataset, self.indices)
        seconds = time.perf_counter() - start
        weights = [
            state[name]
            for state in (self.roi.state_dict(), self.seg.state_dict())
            for name in sorted(state)
        ]
        return Pass(
            seconds=seconds,
            frames=self.frames,
            digest=_digest(result.seg_losses, result.roi_losses, *weights),
            ticks=[seconds],
            info={"result": result},
        )

    def verify(self) -> list[str]:
        # Training has no gaze output of its own.  The tracking quality
        # reported here is that of the tracker this training code makes
        # from the calibration recordings, evaluated exactly as ``track``
        # evaluates it.
        audit = Track(self.seed, self.scale_name)
        audit.make_inputs()
        audit.train()
        audit.warm_up()
        self.audit = audit.outputs()
        return []

    def outputs(self) -> dict:
        return {
            **{k: v for k, v in self.audit.items() if k != "final_seg_loss"},
            "final_seg_loss": self.reference.info["result"].seg_losses[-1],
        }


WORKLOADS = {w.name: w for w in (Track, TrackSharded, Serve, Train)}
