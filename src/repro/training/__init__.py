"""Training procedures: generic segmentation training and the paper's
joint ROI + ViT procedure with approximate differentiable sampling.

:class:`JointTrainer` runs the joint procedure on the batched-rank
kernels of :mod:`repro.training.runtime`; :func:`train_segmentation`
trains a segmenter alone (see ``docs/training.md``)."""

from repro.training.joint import (
    JointTrainConfig,
    JointTrainer,
    JointTrainResult,
    SoftROIMask,
)
from repro.training.loop import TrainResult, batched, train_segmentation
from repro.training.runtime import (
    TRAIN_STREAM_TAG,
    TrainSample,
    collect_frame_pairs,
    sample_stream,
)

__all__ = [
    "TrainResult",
    "train_segmentation",
    "batched",
    "SoftROIMask",
    "JointTrainer",
    "JointTrainConfig",
    "JointTrainResult",
    "TrainSample",
    "TRAIN_STREAM_TAG",
    "collect_frame_pairs",
    "sample_stream",
]
