"""The end-to-end BlissCam tracker: configure, build, train, evaluate.

Three parts, one module:

* **Configurations.** :class:`SystemConfig` with the CI-scale
  :func:`ci` and the faithful Sec. V :func:`paper` presets.  Both flow
  through identical code paths; only sizes differ.
  :func:`~repro.api.session.system_config` derives one from a spec.
* **The tracker.** :class:`BlissCamPipeline` wires the synthetic
  dataset, the functional sensor (analog eventification, trained ROI
  predictor, SRAM-RNG sampling, sparse readout, RLE), the sparse ViT
  segmenter and the geometric gaze regressor together.  It measures
  both *accuracy* (per-axis angular error) and the *workload
  statistics* (ROI, sampled and valid-token fractions, RLE bytes) that
  parameterize the hardware energy/latency models.
* **The strategy harness.** Fig. 12 compares pipeline variants across
  segmentation backbones and Fig. 15 compares seven sampling
  strategies under one backbone.  Both reduce to *train a segmenter on
  frames sampled by strategy S, then measure gaze error on held-out
  frames sampled by S* (:func:`train_for_strategy`,
  :func:`evaluate_strategy`).  Strategies come from the
  :data:`~repro.sampling.strategies.STRATEGIES` table:
  ``STRATEGIES[name](compression, dataset)``.

The ``evaluate`` and ``strategy_sweep`` workloads run on these; callers
that want the imperative surface import it from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.api.spec import PRESET_NUM_SEQUENCES
from repro.engine import (
    EngineRun,
    SensorSpawnFactory,
    SequenceRunner,
    Shards,
    build_strategy_graph,
    build_tracking_graph,
)
from repro.gaze.estimation import FittedGazeEstimator
from repro.gaze.metrics import AngularErrorStats, angular_errors
from repro.hardware.energy import WorkloadProfile
from repro.hardware.sensor.sensor import BlissCamSensor
from repro.sampling.eventification import eventify
from repro.sampling.roi import (
    ROIPredictor,
    box_from_pixels,
    boxes_to_pixels,
)
from repro.sampling.strategies import SamplingStrategy
from repro.segmentation.vit import ViTConfig, ViTSegmenter
from repro.synth.dataset import DatasetConfig, SyntheticEyeDataset
from repro.training.joint import JointTrainConfig, JointTrainer, JointTrainResult
from repro.training.loop import train_segmentation

__all__ = [
    "SystemConfig",
    "ci",
    "paper",
    "BlissCamPipeline",
    "EvaluationResult",
    "WorkloadStats",
    "MarginExpandedPredictor",
    "StrategyEvaluation",
    "collect_sampled_dataset",
    "train_for_strategy",
    "evaluate_strategy",
]


# -- configurations ----------------------------------------------------------
@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build and train the end-to-end tracker."""

    dataset: DatasetConfig
    vit: ViTConfig
    joint: JointTrainConfig
    #: Channel width of the ROI predictor's first conv layer.
    roi_base_channels: int = 4
    #: Target compression rate (total / transmitted pixels; paper: 20.6x).
    compression: float = 20.6
    #: Safety margin (pixels) added around the predicted ROI before
    #: sampling, absorbing small box-regression errors.
    roi_margin_px: int = 1
    seed: int = 0

    @property
    def height(self) -> int:
        return self.dataset.height

    @property
    def width(self) -> int:
        return self.dataset.width


def ci(
    seed: int = 0,
    num_sequences: int = PRESET_NUM_SEQUENCES["ci"],
    frames_per_sequence: int = 10,
    fps: float = 120.0,
) -> SystemConfig:
    """Small configuration for tests, examples, and benches (64x64)."""
    height = width = 64
    return SystemConfig(
        dataset=DatasetConfig(
            height=height,
            width=width,
            fps=fps,
            frames_per_sequence=frames_per_sequence,
            num_sequences=num_sequences,
            seed=seed,
        ),
        vit=ViTConfig(
            height=height,
            width=width,
            patch=8,
            dim=24,
            heads=3,
            depth=2,
            decoder_depth=1,
            mlp_ratio=2.0,
        ),
        joint=JointTrainConfig(epochs=2),
        roi_base_channels=4,
        compression=20.6,
        seed=seed,
    )


def paper(seed: int = 0) -> SystemConfig:
    """The faithful Sec. V configuration (640x400, ViT-12/2, 250 epochs).

    Pure-numpy training at this scale takes hours per epoch; it exists to
    document the target configuration and for spot checks.
    """
    return SystemConfig(
        dataset=DatasetConfig(
            height=400,
            width=640,
            fps=120.0,
            frames_per_sequence=60,
            num_sequences=PRESET_NUM_SEQUENCES["paper"],
            seed=seed,
        ),
        vit=ViTConfig.paper(height=400, width=640),
        joint=JointTrainConfig(epochs=250, lr_segmenter=1e-3, lr_roi=1e-3),
        roi_base_channels=8,
        compression=20.6,
        seed=seed,
    )


# -- the tracker -------------------------------------------------------------
@dataclass
class MarginExpandedPredictor:
    """The trained ROI predictor with the safety-margin box expansion.

    A plain class (not a closure) for two engine requirements: sharded
    execution pickles the predictor to worker processes, and the batched
    ROI-predict stage needs the :meth:`predict_batch` fast path (bitwise
    row-independent, see :meth:`ROIPredictor.predict_box_batch`; the
    margin expansion itself is exact integer arithmetic on the rank's
    ``(B, 4)`` box array; a non-finite box stays non-finite for the ROI
    stage to refuse).
    """

    roi_predictor: ROIPredictor
    height: int
    width: int
    margin: int

    def _expand(self, boxes: np.ndarray) -> np.ndarray:
        size = (self.height, self.width)
        pixels = boxes_to_pixels(boxes, *size)
        pixels[:, :2] = np.maximum(pixels[:, :2] - self.margin, 0)
        pixels[:, 2:] = np.minimum(pixels[:, 2:] + self.margin, size)
        return box_from_pixels(pixels, *size)

    def __call__(
        self, event_map: np.ndarray, prev_seg: np.ndarray | None
    ) -> np.ndarray:
        return self.predict_batch(event_map, prev_seg)[0]

    def predict_batch(self, event_maps, prev_segs) -> np.ndarray:
        boxes = self.roi_predictor.predict_box_batch(event_maps, prev_segs)
        return self._expand(boxes)


@dataclass
class WorkloadStats:
    """Measured per-frame statistics, averaged over an evaluation run."""

    roi_fractions: list[float] = field(default_factory=list)
    sampled_fractions: list[float] = field(default_factory=list)
    valid_token_fractions: list[float] = field(default_factory=list)
    transmitted_bytes: list[int] = field(default_factory=list)
    rle_ratios: list[float] = field(default_factory=list)
    roi_ious: list[float] = field(default_factory=list)

    def record(self, *, roi_fraction, sampled_fraction, token_fraction,
               tx_bytes, rle_ratio, roi_iou):
        self.roi_fractions.append(roi_fraction)
        self.sampled_fractions.append(sampled_fraction)
        self.valid_token_fractions.append(token_fraction)
        self.transmitted_bytes.append(tx_bytes)
        self.rle_ratios.append(rle_ratio)
        if roi_iou is not None:
            self.roi_ious.append(roi_iou)

    @property
    def mean_roi_fraction(self) -> float:
        return float(np.mean(self.roi_fractions)) if self.roi_fractions else 0.0

    @property
    def mean_sampled_fraction(self) -> float:
        return (
            float(np.mean(self.sampled_fractions))
            if self.sampled_fractions
            else 0.0
        )

    @property
    def mean_valid_token_fraction(self) -> float:
        return (
            float(np.mean(self.valid_token_fractions))
            if self.valid_token_fractions
            else 0.0
        )

    @property
    def mean_compression(self) -> float:
        s = self.mean_sampled_fraction
        return 1.0 / s if s > 0 else float("inf")

    @property
    def mean_roi_iou(self) -> float:
        return float(np.mean(self.roi_ious)) if self.roi_ious else 0.0

    def to_profile(self, base: WorkloadProfile | None = None) -> WorkloadProfile:
        """A hardware :class:`WorkloadProfile` with measured fractions."""
        base = base or WorkloadProfile()
        return replace(
            base,
            roi_fraction=max(self.mean_roi_fraction, 1e-4),
            sampled_fraction=max(self.mean_sampled_fraction, 1e-4),
            valid_token_fraction=max(self.mean_valid_token_fraction, 1e-4),
        )


@dataclass
class EvaluationResult:
    """Accuracy + workload statistics of one evaluation run."""

    horizontal: AngularErrorStats
    vertical: AngularErrorStats
    stats: WorkloadStats
    predictions: np.ndarray  # (N, 2)
    truths: np.ndarray  # (N, 2)
    #: Shard-transport accounting from the engine run (``None``
    #: in-process): mode, dispatches, per-dispatch payload bytes —
    #: see :attr:`repro.engine.EngineRun.transport`.
    transport: dict | None = None

    @property
    def within_one_degree(self) -> bool:
        """The paper's accuracy bar: both axes under 1 degree mean error.

        At CI scale (64x64 frames, tiny ViT, few epochs) errors are larger
        than the paper's; this property is still the right *criterion*.
        """
        return self.horizontal.mean < 1.0 and self.vertical.mean < 1.0


class BlissCamPipeline:
    """Build, jointly train, and evaluate the full system."""

    def __init__(self, config: SystemConfig, rng: np.random.Generator | None = None):
        self.config = config
        self.rng = rng or np.random.default_rng(config.seed)
        self.dataset = SyntheticEyeDataset(config.dataset)
        self.roi_predictor = ROIPredictor(
            config.height,
            config.width,
            self.rng,
            base_channels=config.roi_base_channels,
        )
        self.segmenter = ViTSegmenter(config.vit, self.rng)
        self.gaze_estimator = FittedGazeEstimator()
        self._train_result: JointTrainResult | None = None
        self._sensor_templates: dict[int, BlissCamSensor] = {}

    # -- training ------------------------------------------------------------
    def train(self, train_indices: list[int] | None = None) -> JointTrainResult:
        """Joint training (Sec. III-C) + gaze calibration.

        Runs in-process on :class:`~repro.training.joint.JointTrainer`;
        ``config.joint.batch_size`` sets the rank width and the Adam step
        granularity.
        """
        if train_indices is None:
            train_indices, _ = self.dataset.split()
        trainer = JointTrainer(
            self.roi_predictor, self.segmenter, self.config.joint, self.rng
        )
        self._train_result = trainer.train(self.dataset, train_indices)
        # Calibrate the gaze regression on ground-truth maps (per-user
        # calibration in a real system).
        segs, gazes = [], []
        for idx in train_indices:
            seq = self.dataset[idx]
            segs.append(seq.segmentations)
            gazes.append(seq.gazes)
        self.gaze_estimator.fit(np.concatenate(segs), np.concatenate(gazes))
        return self._train_result

    @property
    def train_result(self) -> JointTrainResult | None:
        """The last joint-training result (``None`` before training)."""
        return self._train_result

    def _typical_roi_fraction(self) -> float:
        """Mean ground-truth foreground-box fraction over the first
        sequence (memoized by the dataset), or the hardware model's
        default when that sequence has no foreground box."""
        fraction = self.dataset.typical_roi_fraction(0)
        if fraction is None:
            return WorkloadProfile().roi_fraction
        return fraction

    # -- evaluation ----------------------------------------------------------
    def build_sensor(self, seed: int = 1234) -> BlissCamSensor:
        """A functional sensor wired to the trained ROI predictor.

        The predicted box is expanded by ``config.roi_margin_px`` before
        sampling — a safety margin absorbing small regression errors.  The
        in-ROI sampling rate is derived from the dataset's typical ROI
        size so the *frame-level* compression hits ``config.compression``.
        """
        in_roi_rate = min(
            1.0,
            1.0
            / (self.config.compression * max(self._typical_roi_fraction(), 1e-6)),
        )
        height, width = self.config.height, self.config.width
        return BlissCamSensor(
            height,
            width,
            roi_predictor=MarginExpandedPredictor(
                self.roi_predictor, height, width, self.config.roi_margin_px
            ),
            sampling_rate=in_roi_rate,
            seed=seed,
        )

    def _sensor_template(self, seed: int) -> BlissCamSensor:
        """A cached calibrated chip per seed; evaluation spawns per-sequence
        runtime streams from it, so the expensive SRAM manufacture +
        calibration happens once per (pipeline, seed)."""
        if seed not in self._sensor_templates:
            self._sensor_templates[seed] = self.build_sensor(seed=seed)
        return self._sensor_templates[seed]

    def tracking_setup(
        self, reuse_window: int = 1, sensor_seed: int = 1234
    ) -> tuple:
        """``(stage graph, calibrated sensor template)`` for this tracker.

        The unit streaming consumers build on: :meth:`evaluate` runs it
        in a :class:`~repro.engine.SequenceRunner` over dataset
        sequences, while ``repro.serve`` drives the same graph frame by
        frame; both spawn each lane's sensor from the template through
        :class:`~repro.engine.SensorSpawnFactory`.  Requires
        a trained pipeline (the graph closes over the trained predictor,
        segmenter and calibrated gaze estimator).
        """
        if not self.gaze_estimator.is_fitted:
            raise RuntimeError("pipeline must be trained before evaluation")
        template = self._sensor_template(sensor_seed)
        graph = build_tracking_graph(
            predictor=template.roi_predictor,
            segmenter=self.segmenter,
            gaze_estimator=self.gaze_estimator,
            height=self.config.height,
            width=self.config.width,
            reuse_window=reuse_window,
        )
        return graph, template

    def evaluate(
        self,
        eval_indices: list[int] | None = None,
        reuse_window: int = 1,
        sensor_seed: int = 1234,
        shards: Shards | None = None,
    ) -> EvaluationResult:
        """Run the functional sensor + host over held-out sequences.

        ``reuse_window`` > 1 enables the Table-I ROI-reuse policy (a
        first-class engine stage).  The sequences run in vectorized
        lockstep, one rank of every sequence; a
        :class:`~repro.engine.executors.Shards` handle (a
        ``repro.api.Session``'s ``executor(n)`` and ``transport()``)
        shards that rank over its pool.  Both modes produce
        bitwise-identical results; see ``docs/architecture.md``.
        """
        if eval_indices is None:
            _, eval_indices = self.dataset.split()
        graph, template = self.tracking_setup(
            reuse_window=reuse_window, sensor_seed=sensor_seed
        )
        runner = SequenceRunner(
            graph,
            SensorSpawnFactory(template, (sensor_seed,)),
            # The collector below only needs gaze + stats per frame; drop
            # the O(frame size) intermediates as the run streams.
            retain_intermediates=False,
        )
        run = runner.run(
            [(i, self.dataset[i]) for i in eval_indices], shards=shards
        )
        return self._collect_evaluation(run)

    @staticmethod
    def _collect_evaluation(run: EngineRun) -> EvaluationResult:
        """Fold an engine run into accuracy + workload statistics.

        Contexts arrive in sequence-major order from both execution modes,
        so every downstream reduction sees the same operand order — the
        property behind the in-process == sharded bitwise guarantee.
        """
        stats = WorkloadStats()
        preds, truths = [], []
        for ctx in run.evaluated:
            preds.append(ctx.gaze_pred)
            truths.append(ctx.gaze_true)
            stats.record(**ctx.stats)
        predictions = np.array(preds)
        truth_arr = np.array(truths)
        horizontal, vertical = angular_errors(predictions, truth_arr)
        return EvaluationResult(
            horizontal=horizontal,
            vertical=vertical,
            stats=stats,
            predictions=predictions,
            truths=truth_arr,
            transport=run.transport,
        )


# -- the strategy harness ----------------------------------------------------
@dataclass
class StrategyEvaluation:
    """Gaze accuracy of one (strategy, segmenter) pair."""

    strategy_name: str
    horizontal: AngularErrorStats
    vertical: AngularErrorStats
    mean_compression: float
    frames: int


def collect_sampled_dataset(
    strategy: SamplingStrategy,
    dataset: SyntheticEyeDataset,
    indices: list[int],
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Build (sparse_frame, mask, target) training samples under a
    strategy, which sees each frame's ground-truth ROI box."""
    samples = []
    for prev, cur, seg, _gaze, gt_box, _si, _t in dataset.frame_pairs(indices):
        decision = strategy.sample(cur, eventify(prev, cur), gt_box, rng)
        if decision.reuse_previous:
            continue  # SKIP transmits nothing; no training sample
        samples.append((decision.sparse_frame, decision.mask, seg))
    return samples


def train_for_strategy(
    segmenter,
    strategy: SamplingStrategy,
    dataset: SyntheticEyeDataset,
    indices: list[int],
    epochs: int,
    rng: np.random.Generator,
    lr: float = 3e-3,
    batch_size: int = 4,
):
    """Train ``segmenter`` on frames sampled by ``strategy``.

    Executes on :func:`~repro.training.loop.train_segmentation`: each
    ``batch_size`` minibatch is one model rank, exactly as the
    historical loop ran it.

    Stochastic strategies draw a *fresh* mask every epoch — the same
    regime as the real sensor, whose SRAM RNG resamples each frame.  This
    is what makes random sampling trainable at high compression: the
    network sees many sparse views of each frame instead of one frozen
    mask.  Deterministic strategies (Full+DS, Skip, ROI+DS, ROI+Fixed)
    draw nothing from the RNG, so their samples are collected once and
    every epoch trains on that first pass.  For the stateless ones the
    re-collection was literally identical work; for Skip it also pins the
    adaptive gate to a fresh first pass instead of letting its running
    skip-rate leak across epoch re-collections and silently drift the
    training set (the same leaked-state bug the per-sequence ``spawn``
    design fixes on the evaluation side).
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1: {epochs}")
    result = None
    samples = None
    for _ in range(epochs):
        if samples is None or strategy.stochastic:
            samples = collect_sampled_dataset(strategy, dataset, indices, rng)
        if not samples:
            raise ValueError("strategy produced no training samples")
        epoch_result = train_segmentation(
            segmenter, samples, epochs=1, rng=rng, lr=lr,
            batch_size=batch_size,
        )
        if result is None:
            result = epoch_result
        else:
            result.epoch_losses.extend(epoch_result.epoch_losses)
    return result


def evaluate_strategy(
    strategy: SamplingStrategy,
    segmenter,
    dataset: SyntheticEyeDataset,
    eval_indices: list[int],
    rng: np.random.Generator,
    gaze_estimator: FittedGazeEstimator | None = None,
    shards: Shards | None = None,
    use_gt_roi: bool = True,
) -> StrategyEvaluation:
    """Measure gaze error when the host sees ``strategy``-sampled frames.

    The gaze estimator is calibrated on the evaluation sequences' ground
    truth (per-user calibration); pass a pre-fit estimator to share it.

    Runs on the shared :mod:`repro.engine` stage runtime: eventify ->
    strategy sampling -> segment-or-reuse -> gaze regression, the same
    runner the end-to-end tracker uses.  Each sequence samples from its
    own ``strategy.spawn`` stream keyed by sequence index (derived from
    ``rng``), so both execution modes — one in-process lockstep rank,
    and sharded over a :class:`~repro.engine.executors.Shards` handle
    (e.g. a ``repro.api.Session``'s pool and channel) — produce
    bitwise-identical results; Fig. 15 sweeps can fan out freely.
    """
    if gaze_estimator is None:
        gaze_estimator = FittedGazeEstimator()
        segs = np.concatenate([dataset[i].segmentations for i in eval_indices])
        gazes = np.concatenate([dataset[i].gazes for i in eval_indices])
        gaze_estimator.fit(segs, gazes)

    graph = build_strategy_graph(
        strategy=strategy,
        segmenter=segmenter,
        gaze_estimator=gaze_estimator,
        rng=rng,
        use_gt_roi=use_gt_roi,
    )
    # The collector below only needs gaze + stats scalars; drop the
    # O(frame size) intermediates as the run streams (and keep sharded
    # worker->parent transfers scalar-sized).
    runner = SequenceRunner(graph, retain_intermediates=False)
    run = runner.run([(i, dataset[i]) for i in eval_indices], shards=shards)

    preds, truths, compressions = [], [], []
    for ctx in run.evaluated:
        preds.append(ctx.gaze_pred)
        truths.append(ctx.gaze_true)
        if not ctx.seg_reused:
            compressions.append(min(ctx.stats["compression"], 1e6))

    horizontal, vertical = angular_errors(np.array(preds), np.array(truths))
    return StrategyEvaluation(
        strategy_name=strategy.name,
        horizontal=horizontal,
        vertical=vertical,
        mean_compression=float(np.mean(compressions)) if compressions else 1.0,
        frames=len(preds),
    )
