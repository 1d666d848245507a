"""In-sensor sparse sampling algorithms (paper Sec. III-A).

Eventification (Eqn. 1), the lightweight ROI prediction DNN, random and
uniform pixel sampling, and the full strategy zoo of the Fig. 15 ablation.
"""

from repro.sampling.eventification import DEFAULT_SIGMA, event_density, eventify
from repro.sampling.random_sampling import (
    effective_compression,
    random_mask_in_box,
    uniform_grid_mask,
    uniform_mask_in_box,
)
from repro.sampling.roi import (
    ROIPredictor,
    ROIReusePolicy,
    box_area,
    box_from_pixels,
    box_iou,
    box_to_pixels,
    order_box,
)
from repro.sampling.strategies import (
    STRATEGY_NAMES,
    FullDownsample,
    FullRandom,
    ROIDownsample,
    ROIFixed,
    ROILearned,
    ROIRandom,
    SamplingDecision,
    SamplingStrategy,
    SkipStrategy,
)

__all__ = [
    "DEFAULT_SIGMA",
    "eventify",
    "event_density",
    "uniform_grid_mask",
    "random_mask_in_box",
    "uniform_mask_in_box",
    "effective_compression",
    "ROIPredictor",
    "ROIReusePolicy",
    "order_box",
    "box_to_pixels",
    "box_from_pixels",
    "box_area",
    "box_iou",
    "SamplingDecision",
    "SamplingStrategy",
    "FullRandom",
    "FullDownsample",
    "SkipStrategy",
    "ROIDownsample",
    "ROIFixed",
    "ROILearned",
    "ROIRandom",
    "STRATEGY_NAMES",
]
