"""Built-in registry population: the paper's strategies and workloads.

Importing this module (``repro.api`` does it on package import, and
``ExperimentSpec.validate`` pulls it in for standalone spec use) fills
the two registries with everything the reproduction ships:

* the seven Fig. 15 sampling strategies, as
  ``factory(compression, dataset=None)`` callables (``ROI+Fixed`` fits
  its static mask on the dataset at construction);
* the ten workload kinds (registered by decorator in
  :mod:`repro.api.workloads`).

Third-party code extends the same registries with the public
``register_*`` decorators — see ``docs/api.md``.
"""

from __future__ import annotations

import numpy as np

import repro.api.workloads  # noqa: F401  (registers the workload kinds)
from repro.api.registry import register_strategy
from repro.sampling.strategies import (
    FullDownsample,
    FullRandom,
    ROIDownsample,
    ROIFixed,
    ROILearned,
    ROIRandom,
    SkipStrategy,
)


def _simple(cls):
    """Factory for strategies that need nothing beyond the budget."""

    def factory(compression: float, dataset=None):
        return cls(compression)

    factory.__name__ = f"make_{cls.__name__}"
    return factory


register_strategy(FullRandom.name, _simple(FullRandom))
register_strategy(FullDownsample.name, _simple(FullDownsample))
register_strategy(SkipStrategy.name, _simple(SkipStrategy))
register_strategy(ROIDownsample.name, _simple(ROIDownsample))
register_strategy(ROILearned.name, _simple(ROILearned))
register_strategy(ROIRandom.name, _simple(ROIRandom))


@register_strategy(ROIFixed.name)
def _make_roi_fixed(compression: float, dataset=None):
    """``ROI+Fixed`` samples a mask fit to dataset statistics."""
    from repro.synth.eye_model import SEG_CLASSES

    if dataset is None:
        raise ValueError("ROI+Fixed needs a dataset to fit its mask")
    strategy = ROIFixed(compression)
    masks = np.concatenate(
        [
            (seq.segmentations != SEG_CLASSES["background"])
            for seq in dataset
        ]
    )
    strategy.fit(masks)
    return strategy

