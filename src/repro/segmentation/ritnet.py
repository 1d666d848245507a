"""RITnet-style encoder-decoder CNN baseline (Chaudhary et al. 2019).

A compact U-Net: two down-sampling stages with skip connections, a
bottleneck, and two up-sampling stages, ending in a 1x1 classifier.  This
is the dense-input CNN the paper compares against in Fig. 12 — its
accuracy collapses at high compression because convolutions rely on local
neighbourhoods that sparse sampling destroys (Sec. III-B).

The input is two channels (frame, sampling mask) so the same network can
be evaluated on dense and sparse inputs under identical conditions.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.synth.eye_model import NUM_CLASSES

__all__ = ["RITNet"]


class _ConvBlock(nn.Module):
    """conv -> BN -> ReLU, twice."""

    def __init__(self, cin: int, cout: int, rng: np.random.Generator):
        super().__init__()
        self.seq = nn.Sequential(
            nn.Conv2d(cin, cout, 3, rng, padding=1),
            nn.BatchNorm2d(cout),
            nn.ReLU(),
            nn.Conv2d(cout, cout, 3, rng, padding=1),
            nn.BatchNorm2d(cout),
            nn.ReLU(),
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.seq(x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return self.seq.backward(grad)


class RITNet(nn.Module):
    """U-Net segmenter; logits returned as ``(B, H, W, K)``."""

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
        self.enc1 = _ConvBlock(2, c, rng)
        self.pool1 = nn.MaxPool2d(2)
        self.enc2 = _ConvBlock(c, 2 * c, rng)
        self.pool2 = nn.MaxPool2d(2)
        self.bottleneck = _ConvBlock(2 * c, 4 * c, rng)
        self.up2 = nn.UpsampleNearest2d(2)
        self.dec2 = _ConvBlock(4 * c + 2 * c, 2 * c, rng)
        self.up1 = nn.UpsampleNearest2d(2)
        self.dec1 = _ConvBlock(2 * c + c, c, rng)
        self.classifier = nn.Conv2d(c, num_classes, 1, rng)
        self._c = c

    @staticmethod
    def make_input(frame: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Stack (B, H, W) frame + mask into the (B, 2, H, W) network input."""
        return np.stack([frame, mask.astype(np.float64)], axis=1)

    def forward(self, frames: np.ndarray, masks: np.ndarray) -> np.ndarray:
        x = self.make_input(frames, masks)
        s1 = self.enc1(x)
        s2 = self.enc2(self.pool1(s1))
        b = self.bottleneck(self.pool2(s2))
        u2 = self.up2(b)
        d2 = self.dec2(np.concatenate([u2, s2], axis=1))
        u1 = self.up1(d2)
        d1 = self.dec1(np.concatenate([u1, s1], axis=1))
        logits = self.classifier(d1)
        self._skip_channels = (u2.shape[1], u1.shape[1])
        return logits.transpose(0, 2, 3, 1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad = grad.transpose(0, 3, 1, 2)
        grad = self.classifier.backward(grad)
        grad_cat1 = self.dec1.backward(grad)
        n_u1 = self._skip_channels[1]
        grad_u1, grad_s1_a = grad_cat1[:, :n_u1], grad_cat1[:, n_u1:]
        grad_d2 = self.up1.backward(grad_u1)
        grad_cat2 = self.dec2.backward(grad_d2)
        n_u2 = self._skip_channels[0]
        grad_u2, grad_s2_a = grad_cat2[:, :n_u2], grad_cat2[:, n_u2:]
        grad_b = self.up2.backward(grad_u2)
        grad_p2 = self.bottleneck.backward(grad_b)
        grad_s2 = self.pool2.backward(grad_p2) + grad_s2_a
        grad_p1 = self.enc2.backward(grad_s2)
        grad_s1 = self.pool1.backward(grad_p1) + grad_s1_a
        return self.enc1.backward(grad_s1)

    def predict(self, frame: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Single frame -> integer segmentation map (a width-1 rank)."""
        return self.predict_batch(frame[None], mask[None])[0]

    def predict_batch(self, frames: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """Segmentation maps of a ``(B, H, W)`` rank, row-independent.

        Same contract as ``EdGazeNet.predict_batch``: the U-Net trunk is
        row-independent in eval mode (per-sample conv GEMMs, frozen batch
        norm, per-pixel argmax), so each row matches a width-1 call.
        Only valid on eval-mode networks.
        """
        return np.argmax(self.forward(frames, masks), axis=-1)

    def mac_count(self, height: int, width: int) -> int:
        """MACs for one dense frame (CNN cost does not shrink with sparsity)."""
        c = self._c
        total = 0
        shapes = [
            (self.enc1, height, width),
            (self.enc2, height // 2, width // 2),
            (self.bottleneck, height // 4, width // 4),
            (self.dec2, height // 2, width // 2),
            (self.dec1, height, width),
        ]
        for block, h, w in shapes:
            for layer in block.seq.modules:
                if isinstance(layer, nn.Conv2d):
                    total += layer.mac_count(h, w)
        total += self.classifier.mac_count(height, width)
        return total
