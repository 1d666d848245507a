"""Synthetic near-eye dataset: sequences of frames with full ground truth.

The public-data substitution for OpenEDS (DESIGN.md §2).  A *sequence* is
one simulated recording of one subject: consecutive frames at a fixed FPS
with per-frame segmentation maps, gaze vectors, foreground boxes, and the
oculomotor state (saccade/blink flags) used to stress corner cases.

Frames carry sensor noise appropriate to the exposure time implied by the
frame rate, so accuracy-vs-frame-rate sensitivity (Fig. 16) exercises the
same SNR mechanism as the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.synth.eye_model import NUM_CLASSES, EyeGeometry
from repro.synth.gaze_dynamics import GazeDynamicsConfig, GazeSequenceGenerator
from repro.synth.noise import NoiseConfig, SensorNoiseModel, exposure_for_fps
from repro.synth.renderer import EyeRenderer, RenderedFrame

__all__ = ["SyntheticEyeDataset", "EyeSequence", "DatasetConfig"]


@dataclass(frozen=True)
class DatasetConfig:
    """Parameters of the synthetic dataset."""

    height: int = 64
    width: int = 64
    fps: float = 120.0
    frames_per_sequence: int = 24
    num_sequences: int = 4
    seed: int = 0
    #: Scale of the eye relative to the frame (camera distance); 1.0 fills
    #: most of the frame, ~0.6 matches the paper's foreground fraction.
    eye_scale: float = 1.0
    #: Exposure override in seconds.  None derives exposure from ``fps``;
    #: setting it decouples the SNR (exposure-driven shot noise) from the
    #: oculomotor timescale — used by the Fig. 16 frame-rate sensitivity,
    #: which sweeps exposure while holding the gaze dynamics fixed.
    exposure_s: float | None = None
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    dynamics: GazeDynamicsConfig = field(default_factory=GazeDynamicsConfig)
    #: When False, frames are returned clean (useful for unit tests).
    apply_noise: bool = True


@dataclass
class EyeSequence:
    """One recording: stacked arrays over ``T`` frames."""

    frames: np.ndarray  # (T, H, W) noisy frames in [0, 1]
    clean_frames: np.ndarray  # (T, H, W) pre-noise signal
    segmentations: np.ndarray  # (T, H, W) int labels
    gazes: np.ndarray  # (T, 2) (horizontal, vertical) degrees
    roi_boxes: list[tuple[int, int, int, int] | None]
    saccade_flags: np.ndarray  # (T,) bool
    blink_flags: np.ndarray  # (T,) bool
    geometry: EyeGeometry
    fps: float

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def num_classes(self) -> int:
        return NUM_CLASSES


class SyntheticEyeDataset:
    """Reproducible collection of :class:`EyeSequence` recordings.

    Sequences are generated lazily and cached; sequence ``i`` is fully
    determined by ``(config.seed, i)`` so train/validation splits by index
    are stable across runs.
    """

    def __init__(self, config: DatasetConfig | None = None):
        self.config = config or DatasetConfig()
        if self.config.frames_per_sequence < 2:
            raise ValueError("sequences need at least 2 frames for eventification")
        self._cache: dict[int, EyeSequence] = {}
        self._roi_fraction_cache: dict[int, float | None] = {}

    def __len__(self) -> int:
        return self.config.num_sequences

    def __getitem__(self, index: int) -> EyeSequence:
        if not 0 <= index < len(self):
            raise IndexError(index)
        if index not in self._cache:
            self._cache[index] = self._generate(index)
        return self._cache[index]

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def _generate(self, index: int) -> EyeSequence:
        cfg = self.config
        rng = np.random.default_rng([cfg.seed, index])
        geometry = EyeGeometry.random(rng).scaled(cfg.eye_scale)
        renderer = EyeRenderer(geometry, cfg.height, cfg.width, rng)
        dynamics = GazeSequenceGenerator(geometry, cfg.fps, rng, cfg.dynamics)
        noise = SensorNoiseModel(cfg.noise, seed=int(rng.integers(0, 2**31)))
        exposure = (
            cfg.exposure_s if cfg.exposure_s is not None else exposure_for_fps(cfg.fps)
        )

        rendered: list[RenderedFrame] = [
            renderer.render(state) for state in dynamics.generate(cfg.frames_per_sequence)
        ]
        clean = np.stack([r.image for r in rendered])
        if cfg.apply_noise:
            frames = np.stack([noise.apply(img, exposure) for img in clean])
        else:
            frames = clean.copy()
        return EyeSequence(
            frames=frames,
            clean_frames=clean,
            segmentations=np.stack([r.segmentation for r in rendered]),
            gazes=np.array([r.gaze for r in rendered]),
            roi_boxes=[r.roi_box for r in rendered],
            saccade_flags=np.array([r.state.in_saccade for r in rendered]),
            blink_flags=np.array([r.state.in_blink for r in rendered]),
            geometry=geometry,
            fps=cfg.fps,
        )

    # -- convenience views ---------------------------------------------------
    def typical_roi_fraction(self, index: int = 0) -> float | None:
        """Mean ground-truth foreground-box fraction of sequence ``index``.

        Memoized: callers (sensor sizing, sampling-rate sweeps) ask for
        this repeatedly and the underlying sequence is already cached, so
        the reduction is computed once per index.  Returns None when the
        sequence has no foreground boxes (all-blink pathological case).
        """
        if index not in self._roi_fraction_cache:
            seq = self[index]
            total = self.config.height * self.config.width
            fractions = [
                (b[2] - b[0]) * (b[3] - b[1]) / total
                for b in seq.roi_boxes
                if b is not None
            ]
            self._roi_fraction_cache[index] = (
                float(np.mean(fractions)) if fractions else None
            )
        return self._roi_fraction_cache[index]

    def split(self, train_fraction: float = 0.75) -> tuple[list[int], list[int]]:
        """Deterministic train/validation split by sequence index."""
        if not 0 < train_fraction < 1:
            raise ValueError("train_fraction must be in (0, 1)")
        n_train = max(1, int(round(train_fraction * len(self))))
        n_train = min(n_train, len(self) - 1) if len(self) > 1 else n_train
        indices = list(range(len(self)))
        return indices[:n_train], indices[n_train:]

    def frame_pairs(self, indices: list[int] | None = None):
        """Yield ``(prev_frame, frame, seg, gaze, roi_box, seq_index, t)``.

        Consecutive-frame pairs are the unit the sampling pipeline consumes
        (eventification needs frame t-1 and t).
        """
        for seq_index in indices if indices is not None else range(len(self)):
            seq = self[seq_index]
            for t in range(1, len(seq)):
                yield (
                    seq.frames[t - 1],
                    seq.frames[t],
                    seq.segmentations[t],
                    seq.gazes[t],
                    seq.roi_boxes[t],
                    seq_index,
                    t,
                )
