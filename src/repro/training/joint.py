"""Joint training of the ROI predictor and the sparse ViT (Sec. III-C).

Two loss terms drive the end-to-end pipeline:

* **segmentation loss** — cross entropy on the ViT's output;
* **ROI loss** — mean-squared error between the predicted and ground-truth
  normalized ROI boxes.

The segmentation loss back-propagates into the ROI predictor *through the
sampling stage*.  Sampling is a hard, discrete operation, so — like the
paper — we use an approximate differentiable relaxation: the predicted box
is rendered as a **soft ROI mask** (a product of sigmoid edges) that
multiplies both the pixel values and the mask channel the ViT consumes.
The gradient of the segmentation loss w.r.t. the soft mask is then chained
analytically to the four box coordinates.

Gradient masking (the paper's explicit rule): only gradients at pixels
*selected by the random sampling* flow back into the ROI predictor; the
Bernoulli mask multiplies the chain, zeroing everything else.

:class:`JointTrainer` runs the procedure in batched ranks on the kernels
of :mod:`repro.training.runtime`, with one Adam step per minibatch:
per-frame stepping (``batch_size=1``, the paper's schedule) or
minibatched stepping (``batch_size > 1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.nn import Adam, CrossEntropyLoss, MSELoss
from repro.sampling.roi import ROIPredictor
from repro.segmentation.vit import ViTSegmenter
from repro.training.loop import _epoch_span, batched
from repro.training.runtime import _rank_backward, collect_frame_pairs

__all__ = ["SoftROIMask", "JointTrainer", "JointTrainConfig", "JointTrainResult"]


class SoftROIMask:
    """Differentiable rectangle: product of four sigmoid edges.

    ``m(r, c) = s((r - r0)/tau) * s((r1 - r)/tau) * s((c - c0)/tau) *
    s((c1 - c)/tau)`` over normalized coordinates, where ``s`` is the
    logistic function and ``tau`` the edge softness.  As ``tau -> 0`` this
    approaches the hard box indicator; gradients w.r.t. the box corners
    are analytic.

    :meth:`forward_batch`/:meth:`backward_batch` work on ``(B, 4)``
    boxes, elementwise over the stacked batch, so each row's mask and
    gradient are bitwise those of its own box alone (pinned by the
    batch-invariance tests); :meth:`forward`/:meth:`backward` are their
    width-1 calls.
    """

    def __init__(self, height: int, width: int, tau: float = 0.05):
        if tau <= 0:
            raise ValueError(f"tau must be positive: {tau}")
        self.tau = tau
        # Normalized pixel-centre coordinates (fractions of each dimension).
        self._rows = (np.arange(height) + 0.5) / height
        self._cols = (np.arange(width) + 0.5) / width

    @staticmethod
    def _sigmoid(x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    def forward(self, box: np.ndarray) -> np.ndarray:
        """Box (r0, c0, r1, c1) -> soft mask (H, W): a width-1
        :meth:`forward_batch`."""
        return self.forward_batch(np.asarray(box)[None])[0]

    def backward(self, grad_mask: np.ndarray) -> np.ndarray:
        """Gradient of a scalar loss w.r.t. the four box coordinates: a
        width-1 :meth:`backward_batch`."""
        return self.backward_batch(grad_mask[None])[0]

    def forward_batch(self, boxes: np.ndarray) -> np.ndarray:
        """Boxes ``(B, 4)`` -> soft masks ``(B, H, W)`` in one rank.

        Every operation is elementwise over the stacked batch (broadcast
        subtraction, the piecewise sigmoid, per-row outer products), so
        row ``b`` does not depend on the other rows.
        """
        r0 = boxes[:, 0:1]
        c0 = boxes[:, 1:2]
        r1 = boxes[:, 2:3]
        c1 = boxes[:, 3:4]
        tau = self.tau
        self._b_sr0 = self._sigmoid((self._rows[None, :] - r0) / tau)  # (B, H)
        self._b_sr1 = self._sigmoid((r1 - self._rows[None, :]) / tau)
        self._b_sc0 = self._sigmoid((self._cols[None, :] - c0) / tau)  # (B, W)
        self._b_sc1 = self._sigmoid((c1 - self._cols[None, :]) / tau)
        self._b_row = self._b_sr0 * self._b_sr1  # (B, H)
        self._b_col = self._b_sc0 * self._b_sc1  # (B, W)
        return self._b_row[:, :, None] * self._b_col[:, None, :]

    def backward_batch(self, grad_masks: np.ndarray) -> np.ndarray:
        """Mask gradients ``(B, H, W)`` -> box gradients ``(B, 4)``.

        The per-sample reductions (mask @ col_term, the edge sums) run as
        stacked matvecs / per-row sums whose inner shapes do not depend
        on ``B``, so each row is bitwise-equal at every batch width.
        """
        tau = self.tau
        d_sr0 = -self._b_sr0 * (1 - self._b_sr0) / tau
        d_sr1 = self._b_sr1 * (1 - self._b_sr1) / tau
        d_sc0 = -self._b_sc0 * (1 - self._b_sc0) / tau
        d_sc1 = self._b_sc1 * (1 - self._b_sc1) / tau
        # (B, H, W) @ (B, W, 1) -> (B, H): one matvec per sample, same
        # inner shape as the scalar backward's `grad_mask @ col_term`.
        row_dot = np.matmul(grad_masks, self._b_col[:, :, None])[:, :, 0]
        col_dot = np.matmul(
            grad_masks.transpose(0, 2, 1), self._b_row[:, :, None]
        )[:, :, 0]
        return np.stack(
            [
                np.sum(row_dot * d_sr0 * self._b_sr1, axis=1),
                np.sum(col_dot * d_sc0 * self._b_sc1, axis=1),
                np.sum(row_dot * d_sr1 * self._b_sr0, axis=1),
                np.sum(col_dot * d_sc1 * self._b_sc0, axis=1),
            ],
            axis=1,
        )


def _check(field_name: str, ok: bool, constraint: str) -> None:
    if not ok:
        raise ValueError(f"joint.{field_name}: must be {constraint}")


@dataclass(frozen=True)
class JointTrainConfig:
    """Hyper-parameters of the joint procedure.

    The paper trains segmentation for 250 epochs at batch size 4 and the
    ROI network for 100 epochs at batch size 8; the defaults here are CI
    scale and flow through identical code.

    Validation is eager and names the bad field (``joint.epochs: must be
    >= 1``), mirroring the spec's error style, so a bad config fails at
    construction rather than deep inside an epoch.
    """

    epochs: int = 2
    lr_segmenter: float = 3e-3
    lr_roi: float = 1e-3
    #: In-ROI random sampling rate (paper: ~20 % of ROI pixels).
    roi_sampling_rate: float = 0.2
    #: Weight of the segmentation gradient flowing into the ROI predictor.
    seg_to_roi_weight: float = 0.1
    grad_clip: float = 5.0
    #: Soft-mask edge softness for the differentiable relaxation.
    tau: float = 0.05
    #: Probability of hiding the previous-segmentation cue during training.
    #: At run time the fed-back map is missing on the first frame and noisy
    #: early on; dropping the cue randomly keeps the ROI predictor robust
    #: to that distribution shift (same spirit as the paper's blink/saccade
    #: robustness argument for the cue itself).
    cue_dropout: float = 0.4
    #: Probability of *dilating* the cue's foreground during training, and
    #: the maximum dilation radius (pixels).  At run time the fed-back map
    #: comes from the sparse segmenter, which over-predicts foreground
    #: across the sampled region; without this augmentation the predictor
    #: learns "box = bounding box of the cue" and enters a positive
    #: feedback loop where each frame's box inflates the next (the box
    #: ratchet).  Training on inflated cues teaches it to trust the event
    #: map for the tight extent.
    cue_dilate_prob: float = 0.5
    cue_dilate_max_px: int = 4
    #: Frame pairs per training rank *and* per optimizer step.  1 is the
    #: paper-faithful per-frame stepping; > 1 runs each minibatch as one
    #: vectorized rank with one Adam step per minibatch — a documented
    #: semantic change (see ``docs/training.md``).
    batch_size: int = 1

    def __post_init__(self):
        _check("epochs", self.epochs >= 1, ">= 1")
        _check("lr_segmenter", self.lr_segmenter > 0, "> 0")
        _check("lr_roi", self.lr_roi > 0, "> 0")
        _check(
            "roi_sampling_rate",
            0.0 < self.roi_sampling_rate <= 1.0,
            "in (0, 1]",
        )
        _check("seg_to_roi_weight", self.seg_to_roi_weight >= 0, ">= 0")
        _check("grad_clip", self.grad_clip > 0, "> 0")
        _check("tau", self.tau > 0, "> 0")
        _check("cue_dropout", 0.0 <= self.cue_dropout <= 1.0, "in [0, 1]")
        _check(
            "cue_dilate_prob", 0.0 <= self.cue_dilate_prob <= 1.0, "in [0, 1]"
        )
        _check("cue_dilate_max_px", self.cue_dilate_max_px >= 1, ">= 1")
        _check("batch_size", self.batch_size >= 1, ">= 1")


@dataclass
class JointTrainResult:
    seg_losses: list[float] = field(default_factory=list)
    roi_losses: list[float] = field(default_factory=list)

    @property
    def improved(self) -> bool:
        """Whether the *joint* procedure made progress.

        Both trajectories count: the segmentation loss must have dropped
        and the ROI regression loss must not have regressed — a run that
        trades ROI accuracy for segmentation gains is not an improvement
        of the joint objective (the box feeds the sampler that the
        segmenter depends on at run time).
        """
        if len(self.seg_losses) < 2:
            return False
        seg_improved = self.seg_losses[-1] < self.seg_losses[0]
        roi_held = (
            len(self.roi_losses) < 2
            or self.roi_losses[-1] <= self.roi_losses[0]
        )
        return seg_improved and roi_held


class JointTrainer:
    """Trains the ROI predictor and sparse ViT end to end.

    ``config.batch_size`` sets the rank width / step granularity.  One
    integer drawn from ``rng`` per :meth:`train` call keys every
    per-sample stream (the spawn idiom: downstream streams derive from
    identity, not draw order).  The Adam optimizers are built once, over
    each network's ``parameters()``, so their moments carry across
    :meth:`train` calls.
    """

    def __init__(
        self,
        roi_predictor: ROIPredictor,
        segmenter: ViTSegmenter,
        config: JointTrainConfig,
        rng: np.random.Generator,
    ):
        self.roi_predictor = roi_predictor
        self.segmenter = segmenter
        self.config = config
        self.rng = rng
        self.opt_seg = Adam(segmenter.parameters(), lr=config.lr_segmenter)
        self.opt_roi = Adam(roi_predictor.parameters(), lr=config.lr_roi)

    def train(
        self, dataset, sequence_indices: Sequence[int]
    ) -> JointTrainResult:
        """Run ``config.epochs`` passes over the given sequences in-process.

        Each epoch cuts the frame pairs sequence-major into
        ``config.batch_size`` minibatches and takes one Adam step per
        minibatch.
        """
        cfg = self.config
        indices = list(sequence_indices)
        self._check_geometry(dataset, indices)
        seed = int(self.rng.integers(2**63 - 1))
        kernels = (
            CrossEntropyLoss(),
            MSELoss(),
            SoftROIMask(
                self.segmenter.config.height,
                self.segmenter.config.width,
                tau=cfg.tau,
            ),
        )
        samples = collect_frame_pairs(dataset, indices)
        result = JointTrainResult()
        self.segmenter.train()
        self.roi_predictor.train()
        try:
            for epoch in range(cfg.epochs):
                with _epoch_span(
                    epoch, schedule="stepped", samples=len(samples)
                ):
                    seg_loss, roi_loss = self._stepped_epoch(
                        samples, seed, epoch, kernels
                    )
                result.seg_losses.append(seg_loss)
                result.roi_losses.append(roi_loss)
        finally:
            self.segmenter.eval()
            self.roi_predictor.eval()
        return result

    def _check_geometry(self, dataset, indices: list[int]) -> None:
        """Refuse frames the networks were not built for, by name."""
        roi, vit = self.roi_predictor, self.segmenter.config
        nets = {
            "ROI predictor": (roi.height, roi.width),
            "segmenter": (vit.height, vit.width),
        }
        for i in indices:
            frame = tuple(dataset[i].frames.shape[1:])
            for name, expected in nets.items():
                if frame != expected:
                    raise ValueError(
                        f"sequence {i} has {frame[0]}x{frame[1]} frames but "
                        f"the {name} takes {expected[0]}x{expected[1]}"
                    )

    def _step(self) -> None:
        """Clip and apply both optimizers' gradients."""
        self.opt_roi.clip_grad_norm(self.config.grad_clip)
        self.opt_seg.clip_grad_norm(self.config.grad_clip)
        self.opt_roi.step()
        self.opt_seg.step()

    def _stepped_epoch(
        self, samples: list, seed: int, epoch: int, kernels: tuple
    ) -> tuple[float, float]:
        """One Adam step per minibatch, minibatches cut sequence-major."""
        seg_total, roi_total, steps = 0.0, 0.0, 0
        for rank in batched(samples, self.config.batch_size):
            self.opt_roi.zero_grad()
            self.opt_seg.zero_grad()
            seg_l, roi_l = _rank_backward(
                self.roi_predictor, self.segmenter, self.config, seed, epoch,
                rank, *kernels,
            )
            self._step()
            seg_total += seg_l
            roi_total += roi_l
            steps += 1
        return seg_total / max(steps, 1), roi_total / max(steps, 1)
