"""EdGaze-style depthwise-separable CNN baseline (Feng et al. 2022).

EdGaze's eye segmentation network uses depthwise-separable convolutions
for efficiency.  This implementation mirrors that design at small scale:
a strided separable encoder, a separable middle stage, and a nearest-
neighbour upsampling decoder with a 1x1 classifier.  Like RITnet it is a
dense-input CNN and degrades under sparse sampling (Fig. 12).
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.synth.eye_model import NUM_CLASSES

__all__ = ["EdGazeNet"]


class _SeparableBlock(nn.Module):
    """Depthwise conv -> pointwise (1x1) conv -> BN -> ReLU."""

    def __init__(
        self, cin: int, cout: int, rng: np.random.Generator, stride: int = 1
    ):
        super().__init__()
        self.depthwise = nn.DepthwiseConv2d(cin, 3, rng, stride=stride, padding=1)
        self.pointwise = nn.Conv2d(cin, cout, 1, rng)
        self.bn = nn.BatchNorm2d(cout)
        self.act = nn.ReLU()

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.act(self.bn(self.pointwise(self.depthwise(x))))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad = self.bn.backward(self.act.backward(grad))
        return self.depthwise.backward(self.pointwise.backward(grad))

    def mac_count(self, h_in: int, w_in: int) -> int:
        h_out = h_in // self.depthwise.stride
        w_out = w_in // self.depthwise.stride
        return self.depthwise.mac_count(h_in, w_in) + self.pointwise.mac_count(
            h_out, w_out
        )


class EdGazeNet(nn.Module):
    """Depthwise-separable segmenter; logits returned as ``(B, H, W, K)``."""

    #: Training-mode batch norm couples rows through batch statistics,
    #: so the engine only batches ``predict_batch`` on eval-mode nets.
    predict_batch_requires_eval = True

    def __init__(
        self,
        rng: np.random.Generator,
        base_channels: int = 8,
        num_classes: int = NUM_CLASSES,
    ):
        super().__init__()
        c = base_channels
        self.num_classes = num_classes
        self.stem = nn.Conv2d(2, c, 3, rng, padding=1)
        self.stem_act = nn.ReLU()
        self.down1 = _SeparableBlock(c, 2 * c, rng, stride=2)
        self.down2 = _SeparableBlock(2 * c, 4 * c, rng, stride=2)
        self.mid = _SeparableBlock(4 * c, 4 * c, rng)
        self.up1 = nn.UpsampleNearest2d(2)
        self.refine1 = _SeparableBlock(4 * c, 2 * c, rng)
        self.up2 = nn.UpsampleNearest2d(2)
        self.refine2 = _SeparableBlock(2 * c, c, rng)
        self.classifier = nn.Conv2d(c, num_classes, 1, rng)
        self._c = c

    def forward(self, frames: np.ndarray, masks: np.ndarray) -> np.ndarray:
        x = np.stack([frames, masks.astype(np.float64)], axis=1)
        h = self.stem_act(self.stem(x))
        h = self.down1(h)
        h = self.down2(h)
        h = self.mid(h)
        h = self.refine1(self.up1(h))
        h = self.refine2(self.up2(h))
        return self.classifier(h).transpose(0, 2, 3, 1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad = self.classifier.backward(grad.transpose(0, 3, 1, 2))
        grad = self.up2.backward(self.refine2.backward(grad))
        grad = self.up1.backward(self.refine1.backward(grad))
        grad = self.mid.backward(grad)
        grad = self.down2.backward(grad)
        grad = self.down1.backward(grad)
        return self.stem.backward(self.stem_act.backward(grad))

    def predict(self, frame: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Single frame -> integer segmentation map (a width-1 rank)."""
        return self.predict_batch(frame[None], mask[None])[0]

    def predict_batch(self, frames: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """Segmentation maps of a ``(B, H, W)`` rank, row-independent.

        The trunk is row-independent in eval mode: convolutions run as
        per-sample GEMMs, batch norm applies frozen running statistics
        elementwise, and the argmax reduces per pixel, so stacking the
        rank cannot change any row (pinned by the batch-invariance
        tests).  Only valid on eval-mode networks — training-mode batch
        norm couples rows through batch statistics.
        """
        return np.argmax(self.forward(frames, masks), axis=-1)

    def mac_count(self, height: int, width: int) -> int:
        total = self.stem.mac_count(height, width)
        total += self.down1.mac_count(height, width)
        total += self.down2.mac_count(height // 2, width // 2)
        total += self.mid.mac_count(height // 4, width // 4)
        total += self.refine1.mac_count(height // 2, width // 2)
        total += self.refine2.mac_count(height, width)
        total += self.classifier.mac_count(height, width)
        return total
