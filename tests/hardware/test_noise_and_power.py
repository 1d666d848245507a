"""Tests for the power-budget model and the package's scipy-free imports."""

import os
import subprocess
import sys

import pytest

from repro.hardware.power_budget import HeadsetBudget


def test_scipy_is_optional():
    # setup.py declares numpy alone: no module of the package may need
    # scipy, so importing every one of them must leave it unloaded.
    probe = (
        "import importlib, pkgutil, sys, repro\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    importlib.import_module(info.name)\n"
        "assert 'scipy' not in sys.modules"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)


def test_import_does_not_load_scipy():
    # It used to be most of `import repro.api`'s wall time.
    probe = "import sys, repro.api; assert 'scipy' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)


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
