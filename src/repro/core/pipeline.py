"""The end-to-end BlissCam tracker: build, train, evaluate.

:class:`BlissCamPipeline` wires every subsystem together:

* the synthetic dataset (scene + optics + sensor noise),
* the functional sensor (analog eventification, trained ROI predictor,
  SRAM-RNG sampling, sparse readout, RLE),
* the sparse ViT segmenter on the host,
* the geometric gaze regressor,

and measures both *accuracy* (per-axis angular error) and the *workload
statistics* (ROI fraction, sampled fraction, valid-token fraction, RLE
bytes) that parameterize the hardware energy/latency models — so the
benchmark harness can feed measured numbers, not assumptions, into
Figs. 13/14/16/17.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine import EngineRun, StageTiming, build_tracking_graph, tracking_runner
from repro.gaze.estimation import FittedGazeEstimator
from repro.gaze.metrics import AngularErrorStats, angular_errors
from repro.hardware.energy import WorkloadProfile
from repro.hardware.sensor.sensor import BlissCamSensor
from repro.sampling.roi import (
    ROIPredictor,
    box_from_pixels,
    box_to_pixels,
    expand_box,
)
from repro.segmentation.vit import ViTSegmenter
from repro.synth.dataset import SyntheticEyeDataset
from repro.training.joint import JointTrainConfig, JointTrainer, JointTrainResult
from repro.core.config import SystemConfig

__all__ = [
    "BlissCamPipeline",
    "EvaluationResult",
    "WorkloadStats",
    "MarginExpandedPredictor",
]


@dataclass
class MarginExpandedPredictor:
    """The trained ROI predictor with the safety-margin box expansion.

    A plain class (not a closure) for two engine requirements: sharded
    execution pickles the predictor to worker processes, and the batched
    ROI-predict stage needs the :meth:`predict_batch` fast path (bitwise
    row-independent, see :meth:`ROIPredictor.predict_box_batch`; the
    margin expansion itself is exact integer arithmetic per box).
    """

    roi_predictor: ROIPredictor
    height: int
    width: int
    margin: int

    def _expand(self, box: np.ndarray) -> np.ndarray:
        pixel_box = box_to_pixels(box, self.height, self.width)
        pixel_box = expand_box(pixel_box, self.margin, self.height, self.width)
        return box_from_pixels(pixel_box, self.height, self.width)

    def __call__(
        self, event_map: np.ndarray, prev_seg: np.ndarray | None
    ) -> np.ndarray:
        return self._expand(self.roi_predictor.predict_box(event_map, prev_seg))

    def predict_batch(
        self,
        event_maps: list[np.ndarray],
        prev_segs: list[np.ndarray | None],
    ) -> list[np.ndarray]:
        boxes = self.roi_predictor.predict_box_batch(event_maps, prev_segs)
        return [self._expand(box) for box in boxes]


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
        from dataclasses import replace

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
    #: Wall-clock per-stage attribution from the engine run (stage name ->
    #: :class:`~repro.engine.StageTiming`); the measured counterpart of the
    #: Figs. 13/14 per-stage energy/latency breakdowns.
    stage_timings: dict[str, StageTiming] | None = None
    #: Shard-transport accounting from the engine run (``None`` for
    #: in-process modes): mode, dispatches, per-dispatch payload bytes —
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
        self._roi_fraction_cache: float | None = None
        self._sensor_templates: dict[int, BlissCamSensor] = {}

    # -- training ------------------------------------------------------------
    def train(
        self,
        train_indices: list[int] | None = None,
        workers: int | None = None,
        executor=None,
        transport=None,
    ) -> JointTrainResult:
        """Joint training (Sec. III-C) + gaze calibration.

        Runs on the batched training runtime
        (:class:`~repro.training.runtime.TrainRunner`):
        ``config.joint.batch_size`` sets the rank width / step
        granularity and ``config.joint.grad_accum`` selects the
        data-parallel epoch schedule, which ``workers >= 2`` shards over
        ``executor`` with payloads on the ``transport`` channel (a
        ``repro.api.Session``'s ``executor(n)`` and ``transport()``)
        with bitwise-identical results for any worker count.
        """
        if train_indices is None:
            train_indices, _ = self.dataset.split()
        trainer = JointTrainer(
            self.roi_predictor, self.segmenter, self.config.joint, self.rng
        )
        self._train_result = trainer.train(
            self.dataset,
            train_indices,
            workers=workers,
            executor=executor,
            transport=transport,
        )
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
        """Mean ground-truth foreground-box fraction over the first sequence.

        Memoized (both here and in the dataset): ``build_sensor`` asks for
        it on every call and the answer is fixed for a given dataset.
        """
        if self._roi_fraction_cache is None:
            fraction = self.dataset.typical_roi_fraction(0)
            if fraction is None:
                fraction = WorkloadProfile().roi_fraction
            self._roi_fraction_cache = fraction
        return self._roi_fraction_cache

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

        The unit streaming consumers build on: :meth:`evaluate` wraps it
        in a :func:`~repro.engine.tracking_runner` over dataset
        sequences, while ``repro.serve`` drives the same graph frame by
        frame with per-client sensor spawns from the template.  Requires
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
        batched: bool = False,
        batch_size: int | None = None,
        workers: int | None = None,
        executor=None,
        transport=None,
    ) -> EvaluationResult:
        """Run the functional sensor + host over held-out sequences.

        ``reuse_window`` > 1 enables the Table-I ROI-reuse policy (a
        first-class engine stage).  ``batched`` runs the sequences in
        vectorized lockstep; ``batch_size`` bounds the lockstep width.
        ``workers >= 2`` shards the sequence rank over ``executor``
        with payloads on the ``transport`` channel (a
        ``repro.api.Session``'s ``executor(n)`` and ``transport()``),
        composable with ``batched``.  All modes produce
        bitwise-identical results; see ``docs/architecture.md``.
        """
        if eval_indices is None:
            _, eval_indices = self.dataset.split()
        graph, template = self.tracking_setup(
            reuse_window=reuse_window, sensor_seed=sensor_seed
        )
        runner = tracking_runner(
            sensor_template=template,
            sensor_seed=sensor_seed,
            graph=graph,
            batch_size=batch_size,
            # The collector below only needs gaze + stats per frame; drop
            # the O(frame size) intermediates as the run streams.
            retain_intermediates=False,
        )
        run = runner.run(
            [(i, self.dataset[i]) for i in eval_indices],
            batched=batched,
            workers=workers,
            executor=executor,
            transport=transport,
        )
        return self._collect_evaluation(run)

    @staticmethod
    def _collect_evaluation(run: EngineRun) -> EvaluationResult:
        """Fold an engine run into accuracy + workload statistics.

        Contexts arrive in sequence-major order from both execution modes,
        so every downstream reduction sees the same operand order — the
        property behind the batched == sequential bitwise guarantee.
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
            stage_timings=run.stage_timings,
            transport=run.transport,
        )
