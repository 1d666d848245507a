"""Pins for the flat parameter arena behind every optimizer.

The arena's Adam update, ``zero_grad`` and gradient clip must be
bitwise-equal to the per-parameter loops they replaced, kept here as the
references; parameters must stay views into the arena (through pickling
too), and a detached arena must fail loudly instead of updating stale
memory.
"""

import pickle

import numpy as np
import pytest

from repro.nn import Adam, Linear, Parameter, Sequential

#: Mixed ranks and sizes, including spans longer than numpy's pairwise
#: summation block and offsets that are not a multiple of 8.
SHAPES = [(1,), (3, 4), (2, 3, 5), (7,), (4, 1, 3, 3), (300, 50), (20, 30, 40)]


class ReferenceAdam:
    """The retired per-parameter Adam loop."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]
        self._t = 0

    def step(self):
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad**2
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


def reference_clip(params, max_norm):
    """The retired per-parameter ``clip_grad_norm``."""
    total = np.sqrt(sum(float(np.sum(p.grad**2)) for p in params))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


def make_params(seed=0):
    rng = np.random.default_rng(seed)
    return [Parameter(rng.standard_normal(shape), name=f"p{i}")
            for i, shape in enumerate(SHAPES)]


def fill_grads(params, rng):
    for p in params:
        p.grad += rng.standard_normal(p.shape) * rng.uniform(0.1, 10.0)


def assert_bitwise(a, b):
    for x, y in zip(a, b):
        assert x.data.tobytes() == y.data.tobytes()
        assert x.grad.tobytes() == y.grad.tobytes()


@pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
@pytest.mark.parametrize("max_norm", [1e9, 5.0], ids=["no-clip", "clip"])
def test_arena_matches_per_parameter_loops(weight_decay, max_norm):
    ref_params, params = make_params(), make_params()
    ref = ReferenceAdam(ref_params, lr=3e-3, weight_decay=weight_decay)
    opt = Adam(params, lr=3e-3, weight_decay=weight_decay)
    ref_rng, rng = np.random.default_rng(7), np.random.default_rng(7)
    clipped = []
    for step in range(6):
        for p in ref_params:
            p.zero_grad()
        opt.zero_grad()
        fill_grads(ref_params, ref_rng)
        fill_grads(params, rng)
        ref_norm = reference_clip(ref_params, max_norm)
        norm = opt.clip_grad_norm(max_norm)
        assert norm.tobytes() == ref_norm.tobytes()
        clipped.append(bool(ref_norm > max_norm))
        if step == 3:  # a schedule moves the learning rate mid-run
            ref.lr = opt.lr = 1e-3
        ref.step()
        opt.step()
        assert_bitwise(ref_params, params)
    # Each parametrization exercises exactly one branch of the clip.
    assert set(clipped) == {max_norm == 5.0}


def test_parameters_are_views_into_the_arena():
    params = make_params()
    before = [p.data.copy() for p in params]
    fill_grads(params, np.random.default_rng(1))
    grads = [p.grad.copy() for p in params]
    opt = Adam(params)
    for p, data, grad in zip(params, before, grads):
        assert np.shares_memory(p.data, opt.data)
        assert np.shares_memory(p.grad, opt.grad)
        assert np.array_equal(p.data, data) and np.array_equal(p.grad, grad)
    opt.zero_grad()
    assert not opt.grad.any() and not any(p.grad.any() for p in params)


def test_duplicate_parameter_is_refused():
    p = Parameter(np.ones(3))
    with pytest.raises(ValueError, match="twice"):
        Adam([p, p])


class TestDetachedArena:
    def test_repacked_by_newer_optimizer(self):
        params = make_params()
        old = Adam(params)
        new = Adam(params)
        fill_grads(params, np.random.default_rng(2))
        new.step()  # the newest optimizer owns the parameters
        for call in (old.step, old.zero_grad, lambda: old.clip_grad_norm(1.0)):
            with pytest.raises(RuntimeError, match="detached"):
                call()

    @pytest.mark.parametrize("attr", ["data", "grad"])
    def test_rebound_parameter(self, attr):
        params = make_params()
        opt = Adam(params)
        setattr(params[2], attr, getattr(params[2], attr).copy())
        with pytest.raises(RuntimeError, match=r"parameter 2 \(p2\) is detached"):
            opt.step()


def test_pickled_optimizer_comes_back_aliased():
    rng = np.random.default_rng(3)
    model = Sequential(Linear(5, 4, rng), Linear(4, 2, rng))
    opt = Adam(model.parameters(), lr=1e-2, weight_decay=1e-3)
    for _ in range(2):
        opt.zero_grad()
        fill_grads(model.parameters(), rng)
        opt.step()
    model2, opt2 = pickle.loads(pickle.dumps((model, opt)))
    for p2 in model2.parameters():
        assert np.shares_memory(p2.data, opt2.data)
        assert np.shares_memory(p2.grad, opt2.grad)
    assert all(p is q for p, q in zip(opt2.params, model2.parameters()))
    # Both continue identically: the moments and step count survived.
    for net, o in ((model, opt), (model2, opt2)):
        o.zero_grad()
        fill_grads(net.parameters(), np.random.default_rng(4))
        o.step()
    assert_bitwise(model.parameters(), model2.parameters())
