"""Generic training utilities for segmentation networks.

:func:`train_segmentation` trains any of the three segmenters (ViT,
RITnet, EdGaze — they share the ``forward(frames, masks)`` /
``backward(grad)`` interface) on a list of ``(frame, mask, target)``
samples.  Used for the baseline (non-joint) experiments and the ablation
benchmarks; the paper's full joint procedure lives in
:mod:`repro.training.joint`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.nn import Adam, CrossEntropyLoss
from repro.obs.tracer import current_tracer

__all__ = ["TrainResult", "train_segmentation", "batched"]


@dataclass
class TrainResult:
    """Loss trajectory of one training run."""

    epoch_losses: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        if not self.epoch_losses:
            raise ValueError("no epochs recorded")
        return self.epoch_losses[-1]

    @property
    def improved(self) -> bool:
        return len(self.epoch_losses) >= 2 and (
            self.epoch_losses[-1] < self.epoch_losses[0]
        )


def batched(items: list, batch_size: int):
    """Yield consecutive chunks of at most ``batch_size`` items."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1: {batch_size}")
    for start in range(0, len(items), batch_size):
        yield items[start : start + batch_size]


def _epoch_span(epoch: int, **attrs):
    """The ``train.epoch`` span of one epoch (counted in
    ``train.epochs``), or a no-op context when untraced."""
    tracer = current_tracer()
    if tracer is None:
        return nullcontext()
    tracer.count("train.epochs")
    return tracer.span("train.epoch", epoch=epoch, **attrs)


def train_segmentation(
    model,
    samples: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    epochs: int,
    rng: np.random.Generator,
    lr: float = 3e-3,
    batch_size: int = 4,
    grad_clip: float = 5.0,
    supervise_sampled_only: bool = False,
) -> TrainResult:
    """Train a segmenter on ``(frame, mask, target)`` samples.

    Parameters
    ----------
    model:
        A module with ``forward(frames, masks) -> (B, H, W, K)`` logits.
    samples:
        Each element is ``(frame (H, W), sampling_mask (H, W) bool,
        target (H, W) int)``.
    supervise_sampled_only:
        When True, the cross-entropy is restricted to sampled pixels
        (gradient masking).  The default supervises the full map, teaching
        the network to in-paint labels for unsampled pixels.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1: {epochs}")
    if not samples:
        raise ValueError("no training samples")
    loss_fn = CrossEntropyLoss()
    optimizer = Adam(model.parameters(), lr=lr)
    result = TrainResult()
    order = np.arange(len(samples))
    model.train()
    for epoch in range(epochs):
        with _epoch_span(epoch, schedule="segmentation", samples=len(samples)):
            rng.shuffle(order)
            epoch_loss = 0.0
            num_batches = 0
            for batch_idx in batched(list(order), batch_size):
                frames = np.stack([samples[i][0] for i in batch_idx])
                masks = np.stack([samples[i][1] for i in batch_idx])
                targets = np.stack([samples[i][2] for i in batch_idx])
                logits = model(frames, masks)
                loss_mask = masks if supervise_sampled_only else None
                loss = loss_fn.forward(logits, targets, mask=loss_mask)
                optimizer.zero_grad()
                model.backward(loss_fn.backward())
                optimizer.clip_grad_norm(grad_clip)
                optimizer.step()
                epoch_loss += loss
                num_batches += 1
            result.epoch_losses.append(epoch_loss / num_batches)
    model.eval()
    return result
