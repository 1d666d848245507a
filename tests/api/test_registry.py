"""The name tables a spec's strings index: workloads and strategies."""

import pytest

from repro.api import STRATEGIES, WORKLOADS
from repro.sampling import STRATEGY_NAMES


class TestBuiltins:
    def test_all_strategies_registered(self):
        assert STRATEGY_NAMES == list(STRATEGIES) == [
            "Full+Random",
            "Full+DS",
            "Skip",
            "ROI+DS",
            "ROI+Fixed",
            "ROI+Learned",
            "Ours (ROI+Random)",
        ]

    def test_all_workloads_registered(self):
        assert sorted(WORKLOADS) == [
            "area",
            "energy",
            "evaluate",
            "fps_sweep",
            "latency",
            "node_sweep",
            "power",
            "serve",
            "strategy_sweep",
        ]

    def test_strategy_factories_construct(self):
        strategy = STRATEGIES["Ours (ROI+Random)"](8.0)
        assert strategy.compression == 8.0

    def test_roi_fixed_requires_dataset(self):
        with pytest.raises(ValueError, match="needs a dataset"):
            STRATEGIES["ROI+Fixed"](8.0)
