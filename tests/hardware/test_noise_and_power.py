"""Tests for the eventification noise analysis and the power-budget model."""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.hardware.power_budget import HeadsetBudget
from repro.hardware.sensor.noise_analysis import (
    EventificationErrorModel,
    adc_code_error_probability,
)

#: Only the Gaussian-tail queries need scipy — an optional extra
#: (blisscam-repro[analysis]).  The zero-noise fast paths and the
#: validation checks (which raise *before* the scipy requirement) run
#: everywhere, pinning the scipy-less behavior this repo supports.
needs_scipy = pytest.mark.skipif(
    importlib.util.find_spec("scipy") is None, reason="scipy not installed"
)


def test_scipy_is_optional():
    # Importing the module (and the zero-noise fast paths) must work
    # without scipy; only the Gaussian-tail queries require it.
    model = EventificationErrorModel(noise_rms=0.0, sigma=15 / 255)
    assert model.false_event_probability(0.0) == 0.0
    assert adc_code_error_probability(0.0) == 0.0


def test_import_does_not_load_scipy():
    # scipy is imported on the first Gaussian-tail query, not with the
    # package: it used to be most of `import repro.api`'s wall time.
    probe = "import sys, repro.api; assert 'scipy' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)


class TestEventificationErrorModel:
    def test_zero_noise_is_error_free(self):
        model = EventificationErrorModel(noise_rms=0.0, sigma=15 / 255)
        assert model.false_event_probability(0.0) == 0.0
        assert model.missed_event_probability(0.5) == 0.0

    @needs_scipy
    def test_false_rate_grows_with_noise(self):
        quiet = EventificationErrorModel(0.005, 15 / 255)
        loud = EventificationErrorModel(0.02, 15 / 255)
        assert loud.false_event_probability() > quiet.false_event_probability()

    @needs_scipy
    def test_false_rate_grows_near_threshold(self):
        model = EventificationErrorModel(0.01, 15 / 255)
        assert model.false_event_probability(0.05) > model.false_event_probability(
            0.0
        )

    @needs_scipy
    def test_missed_rate_shrinks_for_large_events(self):
        model = EventificationErrorModel(0.01, 15 / 255)
        assert model.missed_event_probability(0.5) < model.missed_event_probability(
            0.07
        )

    def test_missed_requires_true_event(self):
        model = EventificationErrorModel(0.01, 15 / 255)
        with pytest.raises(ValueError):
            model.missed_event_probability(0.01)

    @needs_scipy
    def test_max_tolerable_noise_meets_budget(self):
        """The designed margin: at the returned noise level, the false
        rate equals the budget (the paper's 'no functional errors')."""
        model = EventificationErrorModel(0.01, 15 / 255)
        budget = 1e-4
        tolerable = model.max_tolerable_noise(budget)
        at_limit = EventificationErrorModel(tolerable, 15 / 255)
        assert at_limit.false_event_probability() == pytest.approx(budget, rel=1e-6)

    @needs_scipy
    def test_designed_operating_point_is_safe(self):
        """Our sensor's default comparator noise (1 LSB) against sigma=15
        produces essentially zero spurious events per frame."""
        model = EventificationErrorModel(noise_rms=1 / 1023, sigma=15 / 255)
        expected = model.expected_false_events(640 * 400)
        assert expected < 1e-6

    @needs_scipy
    def test_expected_false_events_includes_scene_noise(self):
        model = EventificationErrorModel(0.005, 15 / 255)
        clean = model.expected_false_events(10000, background_diff_rms=0.0)
        noisy = model.expected_false_events(10000, background_diff_rms=0.02)
        assert noisy > clean

    def test_validation(self):
        with pytest.raises(ValueError):
            EventificationErrorModel(-0.1, 0.1)
        with pytest.raises(ValueError):
            EventificationErrorModel(0.1, 0.0)
        with pytest.raises(ValueError):
            EventificationErrorModel(0.01, 0.1).max_tolerable_noise(2.0)


class TestAdcErrorProbability:
    def test_zero_noise(self):
        assert adc_code_error_probability(0.0) == 0.0

    @needs_scipy
    def test_monotone_in_noise(self):
        assert adc_code_error_probability(1e-3) > adc_code_error_probability(1e-4)

    @needs_scipy
    def test_lower_bit_depth_more_robust(self):
        assert adc_code_error_probability(1e-3, bit_depth=8) < (
            adc_code_error_probability(1e-3, bit_depth=12)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            adc_code_error_probability(-1e-3)
        with pytest.raises(ValueError):
            adc_code_error_probability(1e-3, bit_depth=0)


class TestHeadsetBudget:
    def test_blisscam_cheaper_than_conventional(self):
        budget = HeadsetBudget()
        full = budget.tracking_power("NPU-Full", 120)
        bliss = budget.tracking_power("BlissCam", 120)
        assert bliss < full / 3

    def test_report_fields(self):
        report = HeadsetBudget().report("BlissCam", 120)
        assert 0 < report.budget_fraction < 1
        assert report.power_w > 0
        assert report.battery_hours > 0

    def test_two_eyes_double_one(self):
        one = HeadsetBudget(num_eyes=1).tracking_power("BlissCam", 120)
        two = HeadsetBudget(num_eyes=2).tracking_power("BlissCam", 120)
        assert two == pytest.approx(2 * one)

    def test_battery_gain_positive(self):
        gain = HeadsetBudget().battery_gain_hours("NPU-Full", "BlissCam", 120)
        assert gain > 0

    def test_over_budget_raises(self):
        tiny = HeadsetBudget(total_power_w=0.01)
        with pytest.raises(ValueError):
            tiny.report("NPU-Full", 120)

    def test_validation(self):
        with pytest.raises(ValueError):
            HeadsetBudget(total_power_w=0)
        with pytest.raises(ValueError):
            HeadsetBudget(num_eyes=0)
