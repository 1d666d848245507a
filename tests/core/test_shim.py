"""The ``repro.core`` compatibility shim kept for the pinned benchmark.

Its ``BlissCamPipeline.evaluate`` accepts the ``batched=True`` keyword
the benchmark passes, refuses any other value, and otherwise is the
tracker's own ``evaluate``.
"""

import numpy as np
import pytest

import repro.api.tracker as tracker
import repro.core as core


@pytest.fixture(scope="module")
def shim_pipeline():
    pipe = core.BlissCamPipeline(tracker.ci(num_sequences=4, frames_per_sequence=8))
    pipe.train([0, 1])
    return pipe


def test_batched_true_is_the_tracker_evaluate(shim_pipeline):
    got = shim_pipeline.evaluate([2, 3], sensor_seed=7, batched=True)
    want = tracker.BlissCamPipeline.evaluate(shim_pipeline, [2, 3], sensor_seed=7)
    assert got.predictions.shape[0] > 0
    assert np.array_equal(got.predictions, want.predictions)
    assert got.stats == want.stats


@pytest.mark.parametrize("value", [False, None, 1])
def test_other_batched_values_refused(shim_pipeline, value):
    with pytest.raises(ValueError, match="batched"):
        shim_pipeline.evaluate([2], batched=value)


def test_tracker_evaluate_has_no_batched_keyword(shim_pipeline):
    with pytest.raises(TypeError):
        tracker.BlissCamPipeline.evaluate(shim_pipeline, [2], batched=True)
