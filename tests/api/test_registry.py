"""Registries: strict names, decorators, populated built-ins."""

import pytest

from repro.api import (
    Registry,
    RegistryError,
    STRATEGIES,
    WORKLOADS,
)
from repro.sampling import STRATEGY_NAMES


class TestRegistry:
    def test_register_and_get(self):
        reg = Registry("thing")
        reg.register("a", object)
        assert reg.get("a") is object
        assert "a" in reg and len(reg) == 1

    def test_decorator_form(self):
        reg = Registry("thing")

        @reg.register("fn")
        def fn():
            return 42

        assert reg.get("fn") is fn

    def test_duplicate_name_rejected(self):
        reg = Registry("thing")
        reg.register("a", object)
        with pytest.raises(RegistryError, match="duplicate thing name 'a'"):
            reg.register("a", int)

    def test_unknown_name_lists_choices(self):
        reg = Registry("thing")
        reg.register("alpha", object)
        with pytest.raises(RegistryError, match=r"choose from \['alpha'\]"):
            reg.get("beta")

    def test_empty_name_rejected(self):
        reg = Registry("thing")
        with pytest.raises(RegistryError):
            reg.register("", object)
        with pytest.raises(RegistryError):
            reg.register(None, object)


class TestBuiltins:
    def test_all_strategies_registered(self):
        assert set(STRATEGY_NAMES) <= set(STRATEGIES.names())

    def test_all_workloads_registered(self):
        assert set(WORKLOADS.names()) >= {
            "evaluate",
            "strategy_sweep",
            "energy",
            "latency",
            "area",
            "power",
            "fps_sweep",
            "node_sweep",
        }

    def test_strategy_factories_construct(self):
        strategy = STRATEGIES.get("Ours (ROI+Random)")(8.0)
        assert strategy.compression == 8.0

    def test_roi_fixed_requires_dataset(self):
        with pytest.raises(ValueError, match="needs a dataset"):
            STRATEGIES.get("ROI+Fixed")(8.0)

