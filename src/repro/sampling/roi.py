"""ROI prediction: the lightweight in-sensor DNN plus box utilities.

The predictor follows the paper exactly in structure (Sec. III-A): three
convolution layers followed by two fully-connected layers, consuming the
binary event map with the *previous frame's segmentation map* stacked as a
second input channel (the corrective cue for blinks/saccades).  The output
is four numbers — the normalized corner coordinates of the ROI box.

Box convention throughout the library: ``(r0, c0, r1, c1)`` normalized to
[0, 1], half-open (``r1``/``c1`` exclusive when converted to pixels).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import nn
from repro.synth.eye_model import NUM_CLASSES

__all__ = [
    "ROIPredictor",
    "ROIReusePolicy",
    "box_to_pixels",
    "boxes_to_pixels",
    "box_from_pixels",
    "box_area",
    "box_iou",
    "box_mask",
    "boxes_mask",
    "expand_box",
    "order_box",
]


def order_box(box: np.ndarray) -> np.ndarray:
    """Sort corner coordinates so ``r0 <= r1`` and ``c0 <= c1``.

    Takes one ``(4,)`` box or a ``(B, 4)`` rank; each corner pair keeps
    Python's ``min``/``max`` choice, NaN and signed zeros included.
    """
    box = np.asarray(box, dtype=np.float64)
    lo, hi = box[..., :2], box[..., 2:]
    return np.concatenate(
        [np.where(hi < lo, hi, lo), np.where(hi > lo, hi, lo)], axis=-1
    )


def boxes_to_pixels(boxes: np.ndarray, height: int, width: int) -> np.ndarray:
    """A ``(B, 4)`` rank of normalized boxes -> pixel boxes clipped to the
    frame, as exact integers in float64: a non-finite box stays non-finite
    for the caller to refuse (an integer cast would turn NaN into a
    silently wrong corner).  A box thinner than a pixel grows to one."""
    boxes = order_box(boxes)
    size = np.array([height, width])
    lo = np.clip(np.floor(boxes[:, :2] * size), 0, size)
    hi = np.clip(np.ceil(boxes[:, 2:] * size), 0, size)
    thin = hi <= lo
    hi = np.where(thin, np.minimum(lo + 1, size), hi)
    lo = np.where(thin, hi - 1, lo)
    return np.concatenate([lo, hi], axis=1)


def box_to_pixels(
    box: np.ndarray, height: int, width: int
) -> tuple[int, int, int, int]:
    """Normalized box -> integer pixel box, clipped to the frame."""
    row = boxes_to_pixels(np.asarray(box)[None], height, width)[0]
    return tuple(int(v) for v in row)


def box_from_pixels(pixel_box, height: int, width: int) -> np.ndarray:
    """Integer pixel box (or a ``(B, 4)`` rank of them) -> normalized."""
    return np.asarray(pixel_box) / np.array([height, width, height, width])


def boxes_mask(pixel_boxes: np.ndarray, height: int, width: int) -> np.ndarray:
    """``(B, H, W)`` masks of the pixels inside each box of a ``(B, 4)``
    rank of pixel boxes (one broadcast compare per axis), refusing a box
    that is empty or leaves the frame."""
    boxes = np.asarray(pixel_boxes)
    lo, hi = boxes[:, :2], boxes[:, 2:]
    inside = ((0 <= lo) & (lo < hi) & (hi <= (height, width))).all(axis=1)
    if not inside.all():
        bad = boxes[~inside].tolist()
        raise ValueError(f"ROI {bad} outside frame {(height, width)}")
    r0, c0, r1, c1 = boxes[:, :, None].transpose(1, 0, 2)
    rows, cols = np.arange(height), np.arange(width)
    in_rows = (r0 <= rows) & (rows < r1)
    return in_rows[:, :, None] & ((c0 <= cols) & (cols < c1))[:, None, :]


def box_area(pixel_box: tuple[int, int, int, int]) -> int:
    r0, c0, r1, c1 = pixel_box
    return max(0, r1 - r0) * max(0, c1 - c0)


def box_iou(
    a: tuple[int, int, int, int], b: tuple[int, int, int, int]
) -> float:
    """Intersection-over-union of two pixel boxes."""
    ir0, ic0 = max(a[0], b[0]), max(a[1], b[1])
    ir1, ic1 = min(a[2], b[2]), min(a[3], b[3])
    inter = max(0, ir1 - ir0) * max(0, ic1 - ic0)
    union = box_area(a) + box_area(b) - inter
    return inter / union if union else 0.0


def box_mask(
    pixel_box: tuple[int, int, int, int], height: int, width: int
) -> np.ndarray:
    """Boolean mask of pixels inside the box."""
    return boxes_mask([pixel_box], height, width)[0]


def expand_box(
    pixel_box: tuple[int, int, int, int],
    margin: int,
    height: int,
    width: int,
) -> tuple[int, int, int, int]:
    """Grow a pixel box by ``margin`` on all sides, clipped to the frame."""
    r0, c0, r1, c1 = pixel_box
    return (
        max(0, r0 - margin),
        max(0, c0 - margin),
        min(height, r1 + margin),
        min(width, c1 + margin),
    )


class ROIPredictor(nn.Module):
    """3-conv + 2-FC bounding-box regressor (the in-sensor ROI DNN).

    Input channels: (0) the binary event map, (1) the previous segmentation
    map normalized to [0, 1].  Output: 4 sigmoid-activated normalized
    coordinates ``(r0, c0, r1, c1)``.

    The channel widths scale with ``base_channels``; at the paper's 640x400
    resolution with ``base_channels=8`` the MAC count is of the same order
    as the paper's 2.1e7.
    """

    def __init__(
        self,
        height: int,
        width: int,
        rng: np.random.Generator,
        base_channels: int = 8,
    ):
        super().__init__()
        if height % 8 or width % 8:
            raise ValueError(
                f"resolution {height}x{width} must be divisible by 8 "
                "(three stride-2 convolutions)"
            )
        self.height = height
        self.width = width
        c = base_channels
        self.conv1 = nn.Conv2d(2, c, kernel_size=3, rng=rng, stride=2, padding=1)
        self.act1 = nn.ReLU()
        self.conv2 = nn.Conv2d(c, 2 * c, kernel_size=3, rng=rng, stride=2, padding=1)
        self.act2 = nn.ReLU()
        self.conv3 = nn.Conv2d(
            2 * c, 4 * c, kernel_size=3, rng=rng, stride=2, padding=1
        )
        self.act3 = nn.ReLU()
        self.flatten = nn.Flatten()
        feat = 4 * c * (height // 8) * (width // 8)
        self.fc1 = nn.Linear(feat, 32, rng)
        self.act4 = nn.ReLU()
        self.fc2 = nn.Linear(32, 4, rng)
        self.out_act = nn.Sigmoid()

    @staticmethod
    def make_input(event_maps, prev_segmentations) -> np.ndarray:
        """Stack event maps + previous segmentations into a ``(B, 2, H, W)``
        batch; a lone ``(H, W)`` event map and its segmentation (or None)
        make a batch of one."""
        if isinstance(event_maps, np.ndarray) and event_maps.ndim == 2:
            event_maps, prev_segmentations = [event_maps], [prev_segmentations]
        x = np.zeros((len(event_maps), 2, *np.shape(event_maps[0])))
        np.stack(event_maps, out=x[:, 0])
        for row, seg in zip(x[:, 1], prev_segmentations):
            if seg is not None:
                row[...] = seg
        x[:, 1] /= max(NUM_CLASSES - 1, 1)
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = self.act1(self.conv1(x))
        h = self.act2(self.conv2(h))
        h = self.act3(self.conv3(h))
        h = self.act4(self.fc1(self.flatten(h)))
        return self.out_act(self.fc2(h))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad = self.fc2.backward(self.out_act.backward(grad))
        grad = self.flatten.backward(self.fc1.backward(self.act4.backward(grad)))
        grad = self.conv3.backward(self.act3.backward(grad))
        grad = self.conv2.backward(self.act2.backward(grad))
        return self.conv1.backward(self.act1.backward(grad))

    def predict_box(
        self, event_map: np.ndarray, prev_segmentation: np.ndarray | None
    ) -> np.ndarray:
        """Convenience: event map (+ prev seg) -> ordered normalized box."""
        return self.predict_box_batch([event_map], [prev_segmentation])[0]

    def predict_box_batch(
        self,
        event_maps,
        prev_segmentations: list[np.ndarray | None],
    ) -> np.ndarray:
        """Ordered normalized ``(B, 4)`` boxes of a rank, each row
        independent of the rest.

        The conv trunk is safe to stack: im2col is a pure gather and the
        conv GEMM is row-independent by construction (one fixed-shape
        matmul per sample — see :class:`~repro.nn.conv.Conv2d`).  The FC
        tail is *not* provably batch-invariant (a stacked ``(B, F) @
        (F, O)`` BLAS call may block differently per ``B``), so it runs
        per-row — it is a tiny fraction of the predictor's MACs.  The
        forward runs under :func:`repro.nn.inference`.
        """
        x = self.make_input(event_maps, prev_segmentations)
        with nn.inference():
            h = self.act1(self.conv1(x))
            h = self.act2(self.conv2(h))
            h = self.act3(self.conv3(h))
            flat = self.flatten(h)
            out = np.concatenate(
                [
                    self.out_act(self.fc2(self.act4(self.fc1(flat[b : b + 1]))))
                    for b in range(flat.shape[0])
                ]
            )
        return order_box(out)

    def mac_count(self) -> int:
        """Multiply-accumulates for one forward pass (paper: ~2.1e7)."""
        h, w = self.height, self.width
        total = self.conv1.mac_count(h, w)
        total += self.conv2.mac_count(h // 2, w // 2)
        total += self.conv3.mac_count(h // 4, w // 4)
        total += self.fc1.mac_count(1)
        total += self.fc2.mac_count(1)
        return total


@dataclass
class ROIReusePolicy:
    """Reuse a previously predicted ROI for ``window`` consecutive frames.

    ``window = 1`` predicts every frame (no reuse) — the paper's default.
    Table I studies windows of 1, 4 and 16 and finds reuse a bad trade.
    """

    window: int = 1

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"reuse window must be >= 1: {self.window}")
        self._cached: np.ndarray | None = None
        self._age = 0

    def reset(self) -> None:
        self._cached = None
        self._age = 0

    def should_predict(self) -> bool:
        """True when a fresh prediction is needed this frame."""
        return self._cached is None or self._age >= self.window

    def update(self, box: np.ndarray) -> None:
        """Record a fresh prediction."""
        self._cached = np.asarray(box, dtype=np.float64)
        self._age = 1

    def current(self) -> np.ndarray:
        """The box to use this frame (call after should_predict/update)."""
        if self._cached is None:
            raise RuntimeError("no ROI available; call update() first")
        return self._cached

    def tick(self) -> None:
        """Advance to the next frame."""
        self._age += 1
