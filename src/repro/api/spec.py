"""The declarative experiment spec: one JSON-round-trippable description
of *what to run*.

An :class:`ExperimentSpec` names a workload kind (``evaluate``,
``strategy_sweep``, ``serve``, ``energy``, ...) plus five nested
sections — dataset / sensor / strategy / training / execution — each a
frozen dataclass with CI-scale defaults.  The spec is the unit of
provenance: ``to_dict``/``from_dict``/``from_json`` round-trip exactly,
:meth:`ExperimentSpec.spec_hash` is a stable digest of the canonical
JSON, and every :class:`~repro.api.result.RunResult` embeds the spec it
ran.

Validation is eager and *names the bad field*: unknown keys, wrong
types, out-of-range values, and unregistered workload/strategy strings
all raise :class:`SpecError` with a dotted field path
(``execution.workers``) and, for typos, a did-you-mean suggestion.
"""

from __future__ import annotations

import dataclasses
import difflib
import hashlib
import json
import math
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "SpecError",
    "NoiseSection",
    "DatasetSection",
    "SensorSection",
    "StrategySection",
    "TrainingSection",
    "ServeSection",
    "TraceSection",
    "ExecutionSection",
    "ExperimentSpec",
]

#: Dataset size presets; both flow through identical code paths.
DATASET_PRESETS = ("ci", "paper")
#: Sequence count each preset defaults to (mirrors ``repro.api.tracker``
#: ``ci()``/``paper()``; used to range-check indices at validate time
#: without importing the tracker).
PRESET_NUM_SEQUENCES = {"ci": 4, "paper": 32}
#: Oculomotor-statistics presets.
DYNAMICS_PRESETS = ("default", "lively")
#: Client arrival processes of the ``serve`` workload.
ARRIVAL_PROCESSES = ("uniform", "poisson", "trace")
#: Deadline policies of the ``serve`` workload.
DEADLINE_POLICIES = ("drop", "best_effort")


class SpecError(ValueError):
    """A spec failed validation; ``field`` is the dotted path at fault."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field = field_path


@dataclass(frozen=True)
class NoiseSection:
    """Overrides of the sensor noise model (:class:`repro.synth.noise.
    NoiseConfig`).  ``None`` keeps the physical defaults; setting a field
    changes the rendered frames, so every field is covered by the dataset
    section hash (a noise override forces a retrain, as it must)."""

    #: Expected photo-electrons at full scale for a 1 s exposure.
    electrons_per_second_full_scale: float | None = None
    #: RMS read noise in electrons.
    read_noise_electrons: float | None = None
    #: ADC bit depth of the stored pixel values.
    bit_depth: int | None = None


@dataclass(frozen=True)
class DatasetSection:
    """The synthetic recording the experiment runs on."""

    #: Size preset: ``ci`` (64x64, seconds-scale) or ``paper`` (640x400).
    preset: str = "ci"
    #: Sequence count / length; ``None`` keeps the preset's geometry
    #: (``ci``: 4 x 10, ``paper``: the Sec. V 32 x 60).
    num_sequences: int | None = None
    frames_per_sequence: int | None = None
    fps: float = 120.0
    seed: int = 0
    #: Eye scale override (camera distance); ``None`` keeps the preset's.
    eye_scale: float | None = None
    #: Oculomotor statistics: ``default`` (calm) or ``lively`` (short
    #: fixations, pursuits, large saccades — keeps short sequences full
    #: of motion, which adaptive strategies like Skip need).
    dynamics: str = "default"
    #: Blink rate override (blinks/second); ``None`` keeps the dynamics
    #: preset's (~0.28 Hz, the human average).
    blink_rate_hz: float | None = None
    #: Sensor noise-model overrides (shot noise scale, read noise, ADC
    #: depth); all-``None`` keeps the physical defaults.
    noise: NoiseSection = field(default_factory=NoiseSection)


@dataclass(frozen=True)
class SensorSection:
    """The functional sensor's operating point."""

    #: Target frame-level compression (total / transmitted pixels).
    compression: float = 20.6
    #: Safety margin (pixels) around the predicted ROI before sampling.
    roi_margin_px: int = 1
    #: Seed of the calibrated chip template and its runtime noise streams.
    sensor_seed: int = 1234
    #: Table-I ROI-reuse window (1 = predict every frame).
    reuse_window: int = 1


@dataclass(frozen=True)
class StrategySection:
    """The Fig. 15 strategy sweep: which strategies, at what budget."""

    #: Strategy registry names; empty sweeps the full built-in zoo.
    names: tuple[str, ...] = ()
    compression: float = 16.0
    #: Per-strategy segmenter training epochs.
    train_epochs: int = 4
    #: Base seed of the per-strategy RNG streams.
    seed: int = 0
    #: Feed strategies the ground-truth ROI box (the Fig. 15 harness).
    use_gt_roi: bool = True


@dataclass(frozen=True)
class TrainingSection:
    """Joint training of the ROI predictor + sparse ViT.

    ``batch_size`` and ``grad_accum`` select the training *schedule*
    (see ``docs/training.md``); both are semantic knobs, covered by the
    training section hash, so overriding them retrains.  The worker
    count stays in the execution section: with ``grad_accum`` on,
    ``execution.workers >= 2`` shards the per-sequence gradient passes
    with bitwise-identical results for any worker count.
    """

    #: Joint-training epochs; ``None`` keeps the dataset preset's.
    epochs: int | None = None
    #: Training sequence indices; ``None`` uses ``dataset.split()``.
    train_indices: tuple[int, ...] | None = None
    #: Frame pairs per training rank *and* per Adam step; ``None`` keeps
    #: the preset's (1).  1 is the paper-faithful per-frame stepping
    #: (bitwise-pinned against the historical loop); > 1 runs each
    #: minibatch as one vectorized rank with one Adam step per minibatch
    #: — a documented semantic change.
    batch_size: int | None = None
    #: The data-parallel schedule (``None`` keeps the preset's, False):
    #: gradients accumulate over every rank of an epoch (reduced in
    #: fixed sequence order) and each epoch takes one Adam step.
    #: Required for sharded training.
    grad_accum: bool | None = None


@dataclass(frozen=True)
class ServeSection:
    """The ``serve`` workload: a multi-client streaming scenario.

    Describes the arrival side (how many client eye-streams, what
    arrival process, for how many frame-time ticks) and the SLO side
    (deadline policy, per-tick host batch capacity, admission queue).
    See ``docs/serving.md``.
    """

    #: Concurrent client eye-streams multiplexed through one tracker.
    num_clients: int = 4
    #: Arrival process: ``uniform`` (one frame per tick), ``poisson``
    #: (exponential inter-arrival gaps), ``trace`` (blink-gated: the
    #: stream pauses while the synthetic eye blinks).
    arrival: str = "uniform"
    #: Virtual-clock ticks (frame periods) to simulate.
    duration_ticks: int = 12
    #: ``drop`` sheds frames that can no longer meet their deadline;
    #: ``best_effort`` processes them anyway and records the miss.
    deadline_policy: str = "drop"
    #: Frames the host serves per tick (micro-batch width bound);
    #: ``None`` serves everything queued.
    max_batch: int | None = None
    #: Admission bound: arrivals beyond this queue depth are dropped;
    #: ``None`` admits everything.
    queue_capacity: int | None = None
    #: Ticks a frame may wait in the queue before its completion would
    #: miss the deadline (deadline = modeled service latency + slack).
    deadline_slack_ticks: int = 1
    #: Base seed of the per-client stream/arrival RNG spawns.
    seed: int = 0


@dataclass(frozen=True)
class TraceSection:
    """Observability: the ``repro.obs`` tracer wired around a run.

    Pure measurement — tracing never changes results, so this section is
    **hash-exempt**: :meth:`ExperimentSpec.section_hash` drops it before
    digesting, and a traced run shares its spec hash (and therefore its
    store/resume identity) with the identical untraced run.  See
    ``docs/observability.md``.
    """

    #: Record a trace for this run.
    enabled: bool = False
    #: JSONL trace file path; ``None`` defaults to
    #: ``trace-<spec_hash>.jsonl`` in the working directory.
    sink: str | None = None
    #: ``full`` records everything; ``summary`` skips the high-volume
    #: per-tick/per-publish spans (see ``repro.obs.TRACE_DETAIL_LEVELS``).
    detail: str = "full"


@dataclass(frozen=True)
class ExecutionSection:
    """*How* to run: engine mode, parallelism, model operating point."""

    #: Worker processes; >= 2 shards the sequence rank.
    workers: int = 1
    #: Vectorized lockstep mode (bitwise-identical to sequential).
    batched: bool = False
    #: Lockstep width bound; ``None`` runs all sequences in one rank.
    batch_size: int | None = None
    #: Evaluation sequence indices; ``None`` uses ``dataset.split()``.
    eval_indices: tuple[int, ...] | None = None
    #: Operating frame rate of the hardware energy/latency models.
    fps: float = 120.0
    #: Frame rates the ``fps_sweep`` workload evaluates; ``None`` uses
    #: the Fig. 16 default points (30, 60, 120, 240, 500).
    fps_sweep_points: tuple[float, ...] | None = None
    #: The ``serve`` workload's scenario (ignored by other workloads).
    serve: ServeSection = field(default_factory=ServeSection)
    #: Tracing around the run (hash-exempt; see :class:`TraceSection`).
    trace: TraceSection = field(default_factory=TraceSection)


_SECTIONS = {
    "dataset": DatasetSection,
    "sensor": SensorSection,
    "strategy": StrategySection,
    "training": TrainingSection,
    "execution": ExecutionSection,
}


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete, serializable description of one experiment."""

    #: Workload kind (a :data:`~repro.api.registry.WORKLOADS` name).
    workload: str = "evaluate"
    dataset: DatasetSection = field(default_factory=DatasetSection)
    sensor: SensorSection = field(default_factory=SensorSection)
    strategy: StrategySection = field(default_factory=StrategySection)
    training: TrainingSection = field(default_factory=TrainingSection)
    execution: ExecutionSection = field(default_factory=ExecutionSection)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        """A plain nested dict (tuples become lists) that round-trips."""
        out: dict = {"workload": self.workload}
        for name in _SECTIONS:
            section = getattr(self, name)
            out[name] = {
                f.name: _plain(getattr(section, f.name))
                for f in dataclasses.fields(section)
            }
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Build and validate a spec; errors name the bad field."""
        if not isinstance(data, dict):
            raise SpecError("<root>", f"expected an object, got {_tn(data)}")
        _check_keys(data, ["workload", *_SECTIONS], "<root>")
        kwargs: dict = {}
        if "workload" in data:
            kwargs["workload"] = _coerce(data["workload"], str, "workload")
        for name, section_cls in _SECTIONS.items():
            if name in data:
                kwargs[name] = _section_from_dict(
                    section_cls, data[name], name
                )
        return cls(**kwargs).validate()

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError("<root>", f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentSpec":
        return cls.from_json(Path(path).read_text())

    # -- identity ------------------------------------------------------------
    def spec_hash(self) -> str:
        """Stable digest of the canonical JSON form."""
        return self.section_hash("workload", *_SECTIONS)

    def section_hash(self, *names: str) -> str:
        """Digest over a subset of sections (e.g. the training-relevant
        ones, so a :class:`~repro.api.session.Session` can share one
        trained pipeline across specs that differ only in execution)."""
        data = self.to_dict()
        subset = {name: data[name] for name in names}
        if "execution" in subset:
            # The trace section is pure measurement (it cannot change
            # results), so it is exempt from spec identity: a traced run
            # resumes from / stores into the same entries as the
            # identical untraced run.
            subset["execution"] = {
                key: value
                for key, value in subset["execution"].items()
                if key != "trace"
            }
        canonical = json.dumps(subset, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    # -- convenience ---------------------------------------------------------
    def with_workers(self, workers: int | None) -> "ExperimentSpec":
        """A copy with ``execution.workers`` overridden (CLI ``--workers``)."""
        if workers is None:
            return self
        return dataclasses.replace(
            self,
            execution=dataclasses.replace(self.execution, workers=workers),
        )

    def with_trace(
        self, sink: str | None = None, detail: str | None = None
    ) -> "ExperimentSpec":
        """A copy with tracing enabled (CLI ``--trace [PATH]``)."""
        trace = dataclasses.replace(
            self.execution.trace,
            enabled=True,
            **({} if sink is None else {"sink": sink}),
            **({} if detail is None else {"detail": detail}),
        )
        return dataclasses.replace(
            self, execution=dataclasses.replace(self.execution, trace=trace)
        )

    # -- validation ----------------------------------------------------------
    def validate(self) -> "ExperimentSpec":
        """Check enums, registries and value ranges; returns ``self``."""
        # Built-in strategies/stages/workloads register on import; pull
        # them in here so a standalone ``repro.api.spec`` import still
        # validates against the populated registries.
        import repro.api.builtin  # noqa: F401  (registration side effect)
        from repro.api.registry import STRATEGIES, WORKLOADS

        if not self.workload:
            raise SpecError("workload", "must be a non-empty workload name")
        if self.workload not in WORKLOADS:
            raise SpecError(
                "workload",
                f"unknown workload {self.workload!r}; "
                f"choose from {WORKLOADS.names()}",
            )
        d = self.dataset
        if d.preset not in DATASET_PRESETS:
            raise SpecError(
                "dataset.preset",
                f"unknown preset {d.preset!r}; choose from {DATASET_PRESETS}",
            )
        if d.num_sequences is not None:
            _require("dataset.num_sequences", d.num_sequences >= 1, ">= 1")
        if d.frames_per_sequence is not None:
            _require(
                "dataset.frames_per_sequence",
                d.frames_per_sequence >= 2,
                ">= 2 (eventification needs frame pairs)",
            )
        _require("dataset.fps", d.fps > 0, "> 0")
        if d.eye_scale is not None:
            _require("dataset.eye_scale", d.eye_scale > 0, "> 0")
        if d.dynamics not in DYNAMICS_PRESETS:
            raise SpecError(
                "dataset.dynamics",
                f"unknown preset {d.dynamics!r}; "
                f"choose from {DYNAMICS_PRESETS}",
            )
        if d.blink_rate_hz is not None:
            _require("dataset.blink_rate_hz", d.blink_rate_hz >= 0, ">= 0")
        # Seeds key numpy RNG streams (default_rng([seed, tag, ...])),
        # which reject negative entries — catch it here with the field
        # named instead of detonating inside numpy mid-run (REP106).
        _require("dataset.seed", d.seed >= 0, ">= 0 (keys RNG streams)")
        n = d.noise
        if n.electrons_per_second_full_scale is not None:
            _require(
                "dataset.noise.electrons_per_second_full_scale",
                n.electrons_per_second_full_scale > 0,
                "> 0",
            )
        if n.read_noise_electrons is not None:
            _require(
                "dataset.noise.read_noise_electrons",
                n.read_noise_electrons >= 0,
                ">= 0",
            )
        if n.bit_depth is not None:
            _require(
                "dataset.noise.bit_depth", 1 <= n.bit_depth <= 16, "in [1, 16]"
            )
        s = self.sensor
        _require("sensor.compression", s.compression >= 1, ">= 1")
        _require("sensor.roi_margin_px", s.roi_margin_px >= 0, ">= 0")
        _require("sensor.reuse_window", s.reuse_window >= 1, ">= 1")
        _require(
            "sensor.sensor_seed", s.sensor_seed >= 0, ">= 0 (keys RNG streams)"
        )
        st = self.strategy
        for i, name in enumerate(st.names):
            if name not in STRATEGIES:
                raise SpecError(
                    f"strategy.names[{i}]",
                    f"unknown strategy {name!r}; "
                    f"choose from {STRATEGIES.names()}",
                )
        _require("strategy.compression", st.compression >= 1, ">= 1")
        _require("strategy.train_epochs", st.train_epochs >= 1, ">= 1")
        _require("strategy.seed", st.seed >= 0, ">= 0 (keys RNG streams)")
        t = self.training
        if t.epochs is not None:
            _require("training.epochs", t.epochs >= 1, ">= 1")
        if t.batch_size is not None:
            _require("training.batch_size", t.batch_size >= 1, ">= 1")
        num_sequences = (
            d.num_sequences
            if d.num_sequences is not None
            else PRESET_NUM_SEQUENCES[d.preset]
        )
        _indices_ok("training.train_indices", t.train_indices, num_sequences)
        e = self.execution
        _require("execution.workers", e.workers >= 1, ">= 1")
        if e.batch_size is not None:
            _require("execution.batch_size", e.batch_size >= 1, ">= 1")
        _indices_ok("execution.eval_indices", e.eval_indices, num_sequences)
        _require("execution.fps", e.fps > 0, "> 0")
        if e.fps_sweep_points is not None:
            if not e.fps_sweep_points:
                raise SpecError(
                    "execution.fps_sweep_points",
                    "must be non-empty (or omitted)",
                )
            for i, fps in enumerate(e.fps_sweep_points):
                _require(f"execution.fps_sweep_points[{i}]", fps > 0, "> 0")
        sv = e.serve
        _require("execution.serve.num_clients", sv.num_clients >= 1, ">= 1")
        if sv.arrival not in ARRIVAL_PROCESSES:
            raise SpecError(
                "execution.serve.arrival",
                f"unknown arrival process {sv.arrival!r}; "
                f"choose from {ARRIVAL_PROCESSES}",
            )
        _require(
            "execution.serve.duration_ticks",
            sv.duration_ticks >= 2,
            ">= 2 (the first frame per client is a bootstrap)",
        )
        if sv.deadline_policy not in DEADLINE_POLICIES:
            raise SpecError(
                "execution.serve.deadline_policy",
                f"unknown policy {sv.deadline_policy!r}; "
                f"choose from {DEADLINE_POLICIES}",
            )
        if sv.max_batch is not None:
            _require("execution.serve.max_batch", sv.max_batch >= 1, ">= 1")
        if sv.queue_capacity is not None:
            _require(
                "execution.serve.queue_capacity", sv.queue_capacity >= 1, ">= 1"
            )
        _require(
            "execution.serve.deadline_slack_ticks",
            sv.deadline_slack_ticks >= 0,
            ">= 0",
        )
        _require(
            "execution.serve.seed", sv.seed >= 0, ">= 0 (keys RNG streams)"
        )
        tr = e.trace
        if tr.sink is not None and not tr.sink:
            raise SpecError(
                "execution.trace.sink",
                "must be a non-empty path (or omitted for the default)",
            )
        from repro.obs.tracer import TRACE_DETAIL_LEVELS

        if tr.detail not in TRACE_DETAIL_LEVELS:
            raise SpecError(
                "execution.trace.detail",
                f"unknown detail level {tr.detail!r}; "
                f"choose from {TRACE_DETAIL_LEVELS}",
            )
        return self


# -- helpers -----------------------------------------------------------------
def _plain(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    return list(value) if isinstance(value, tuple) else value


def _tn(value) -> str:
    return type(value).__name__


def _require(field_path: str, ok: bool, constraint: str) -> None:
    if not ok:
        raise SpecError(field_path, f"must be {constraint}")


def _indices_ok(field_path: str, indices, num_sequences: int) -> None:
    if indices is None:
        return
    if not indices:
        raise SpecError(field_path, "must be non-empty (or omitted)")
    for i, idx in enumerate(indices):
        if not 0 <= idx < num_sequences:
            raise SpecError(
                f"{field_path}[{i}]",
                f"index {idx} out of range for {num_sequences} sequences",
            )


def _check_keys(data: dict, known: list[str], path: str) -> None:
    for key in data:
        if key not in known:
            hint = difflib.get_close_matches(str(key), known, n=1)
            suggestion = f" (did you mean {hint[0]!r}?)" if hint else ""
            where = key if path == "<root>" else f"{path}.{key}"
            raise SpecError(where, f"unknown field{suggestion}")


def _section_from_dict(section_cls, data, path: str):
    if not isinstance(data, dict):
        raise SpecError(path, f"expected an object, got {_tn(data)}")
    hints = typing.get_type_hints(section_cls)
    known = [f.name for f in dataclasses.fields(section_cls)]
    _check_keys(data, known, path)
    kwargs = {
        key: _coerce(value, hints[key], f"{path}.{key}")
        for key, value in data.items()
    }
    return section_cls(**kwargs)


def _coerce(value, hint, path: str):
    """Coerce a JSON value to a field's annotation, naming the field on
    mismatch.  JSON has no int/float distinction on the way in (``120``
    is a valid fps) nor tuples, so ints widen to float and lists become
    tuples; everything else must match exactly.  Floats must be finite:
    ``Infinity`` would pass the range checks and then leak into the
    result JSON as a non-standard token."""
    if dataclasses.is_dataclass(hint) and isinstance(hint, type):
        # Nested sub-sections (dataset.noise, execution.serve) recurse
        # through the same key-checking/coercion machinery.
        return _section_from_dict(hint, value, path)
    origin = typing.get_origin(hint)
    if origin in (types.UnionType, typing.Union):
        arms = typing.get_args(hint)
        if value is None:
            if type(None) in arms:
                return None
            raise SpecError(path, "must not be null")
        for arm in arms:
            if arm is type(None):
                continue
            return _coerce(value, arm, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise SpecError(path, f"expected a list, got {_tn(value)}")
        element = typing.get_args(hint)[0]
        return tuple(
            _coerce(v, element, f"{path}[{i}]") for i, v in enumerate(value)
        )
    if hint is bool:
        if not isinstance(value, bool):
            raise SpecError(path, f"expected a bool, got {_tn(value)}")
        return value
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(path, f"expected an int, got {_tn(value)}")
        return value
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpecError(path, f"expected a number, got {_tn(value)}")
        try:
            number = float(value)
        except OverflowError:  # an int too large for a float
            number = math.inf
        if not math.isfinite(number):
            raise SpecError(path, "expected a finite number")
        return number
    if hint is str:
        if not isinstance(value, str):
            raise SpecError(path, f"expected a string, got {_tn(value)}")
        return value
    raise SpecError(path, f"unsupported spec field type {hint!r}")
