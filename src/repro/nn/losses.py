"""Loss functions used by the joint training procedure (Sec. III-C).

* :class:`CrossEntropyLoss` — segmentation loss over per-pixel class logits,
  with an optional validity mask so only *sampled* pixels contribute (the
  gradient masking the paper applies before back-propagating into the ROI
  predictor).
* :class:`MSELoss` — the ROI regression loss.

Both expose ``forward(pred, target, mask=None) -> float`` and ``backward()``
returning the gradient with respect to the prediction.

The ``mask`` parameter is the reduction seam the batched training
runtime (:mod:`repro.training.runtime`) builds on: a per-row weight
broadcast over the prediction restricts both the loss and the gradient
to chosen positions — per-pixel sampling masks for the segmentation
term, per-*sample* supervision flags for the ROI term (blink frames get
zero-weight rows, so one batched ``forward`` handles mixed
supervised/unsupervised minibatches exactly as the per-frame loop did).
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.module import caching

__all__ = ["CrossEntropyLoss", "MSELoss"]


class CrossEntropyLoss:
    """Mean cross entropy over logits ``(..., num_classes)`` vs int labels.

    ``mask`` (same shape as ``target``) restricts the loss (and therefore
    the gradient) to valid positions; positions outside the mask receive
    exactly zero gradient — this is the "explicitly mask the gradients
    belonging to the pixels that are not selected" rule of Sec. III-C.
    """

    def forward(
        self,
        logits: np.ndarray,
        target: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> float:
        num_classes = logits.shape[-1]
        if target.shape != logits.shape[:-1]:
            raise ValueError(
                f"target shape {target.shape} does not match logits "
                f"{logits.shape[:-1]}"
            )
        log_probs = F.log_softmax(logits, axis=-1)
        onehot = F.one_hot(target, num_classes)
        per_item = -(onehot * log_probs).sum(axis=-1)
        if mask is None:
            weight = np.ones_like(per_item)
        else:
            weight = mask.astype(np.float64)
        count = max(weight.sum(), 1.0)
        if caching():
            self._count = count
            self._probs = np.exp(log_probs)
            self._onehot = onehot
            self._weight = weight
        return float((per_item * weight).sum() / count)

    def backward(self) -> np.ndarray:
        grad = (self._probs - self._onehot) * self._weight[..., None]
        return grad / self._count


class MSELoss:
    """Mean squared error, optionally masked."""

    def forward(
        self,
        pred: np.ndarray,
        target: np.ndarray,
        mask: np.ndarray | None = None,
    ) -> float:
        if pred.shape != target.shape:
            raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
        diff = pred - target
        if mask is None:
            weight = np.ones_like(diff)
        else:
            weight = np.broadcast_to(mask, diff.shape).astype(np.float64)
        count = max(weight.sum(), 1.0)
        if caching():
            self._count = count
            self._diff = diff
            self._weight = weight
        return float((weight * diff**2).sum() / count)

    def backward(self) -> np.ndarray:
        return 2.0 * self._weight * self._diff / self._count
