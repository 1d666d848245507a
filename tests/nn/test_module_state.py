"""Tests for Module state dicts, parameter counts and Parameter pickling."""

import pickle

import numpy as np
import pytest

from repro import nn
from repro.nn.module import Parameter

RNG = np.random.default_rng(0)


class TestStateDict:
    def test_load_rejects_mismatched_architecture(self):
        model = nn.Sequential(nn.Linear(4, 4, RNG))
        other = nn.Sequential(nn.Linear(4, 4, RNG), nn.Linear(4, 2, RNG))
        with pytest.raises(KeyError):
            other.load_state_dict(model.state_dict())

    def test_load_rejects_shape_mismatch(self):
        model = nn.Sequential(nn.Linear(4, 4, RNG))
        state = model.state_dict()
        bad = {k: np.zeros((2, 2)) for k in state}
        with pytest.raises(ValueError):
            model.load_state_dict(bad)

    def test_num_parameters(self):
        model = nn.Linear(10, 5, RNG)
        assert model.num_parameters() == 10 * 5 + 5


class TestParameterPickle:
    def test_grad_is_stripped_and_restored_as_zeros(self):
        # Parameters ship across process boundaries constantly (engine
        # shard workers, training epoch tasks); no consumer reads a
        # shipped gradient, so pickling drops it and unpickling restores
        # a fresh zero buffer of the right shape.
        param = Parameter(np.arange(6.0).reshape(2, 3), name="w")
        param.grad[...] = 5.0
        clone = pickle.loads(pickle.dumps(param))
        assert np.array_equal(clone.data, param.data)
        assert clone.name == "w"
        assert clone.grad.shape == param.data.shape
        assert np.all(clone.grad == 0.0)
