"""Pins for the in-place forward kernels and ``nn.inference()``.

The LayerNorm forward, GELU, softmax, the Linear bias add and the
attention core work in place to keep full-size temporaries off the heap.
Each must stay bitwise-equal to the plain expression it replaced, kept
here as the reference; ``nn.inference()`` must keep forwards from
storing backward caches and restore the previous state on exit.
"""

import threading

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.module import caching

#: Batched token arrays, the packed-slab shapes of the ViT (N tokens x
#: model / MLP width), and odd sizes off any SIMD block boundary.
SHAPES = [(24, 64, 48), (1000, 48), (1000, 96), (3, 7, 5), (2, 3, 17, 17)]

_GELU_C = np.sqrt(2.0 / np.pi)


def reference_layernorm(x, gamma, beta, eps=1e-5):
    """The retired LayerNorm forward: ``np.var`` recomputes ``x - mean``."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean) * inv_std
    return gamma * x_hat + beta, x_hat, inv_std


def reference_gelu(x):
    x2 = x * x
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * (x2 * x))))


def reference_softmax(x, axis=-1):
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def reference_attention(mha, x, key_mask=None):
    """The retired ``MultiHeadAttention.forward`` of ``(B, T, D)`` tokens."""
    qkv = x @ mha.qkv.weight.data + mha.qkv.bias.data
    q, k, v = (mha._split_heads(a) for a in np.split(qkv, 3, axis=-1))
    scores = np.matmul(q, k.transpose(0, 1, 3, 2)) * mha.scale
    if key_mask is not None:
        scores = scores + np.where(key_mask, 0.0, -1e9)[:, None, None, :]
    out = np.matmul(reference_softmax(scores), v)
    merged = mha._merge_heads(out)
    return merged @ mha.proj.weight.data + mha.proj.bias.data


def bitwise(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def data(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * rng.uniform(0.5, 4.0)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_layernorm_forward_matches_reference(shape):
    norm = nn.LayerNorm(shape[-1])
    rng = np.random.default_rng(1)
    norm.gamma.data[...] = rng.standard_normal(shape[-1])
    norm.beta.data[...] = rng.standard_normal(shape[-1])
    x = data(shape) + 3.0
    ref, x_hat, inv_std = reference_layernorm(x, norm.gamma.data, norm.beta.data)
    x_before = x.copy()
    assert bitwise(norm(x), ref)
    assert bitwise(norm._x_hat, x_hat) and bitwise(norm._inv_std, inv_std)
    assert bitwise(x, x_before)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_gelu_matches_reference(shape):
    x = data(shape, seed=2)
    x_before = x.copy()
    assert bitwise(F.gelu(x), reference_gelu(x))
    assert bitwise(x, x_before)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("in_place", [False, True], ids=["fresh", "in-place"])
def test_softmax_matches_reference(shape, in_place):
    x = data(shape, seed=3) * 10.0
    ref = reference_softmax(x)
    out = F.softmax(x, axis=-1, out=x if in_place else None)
    assert bitwise(out, ref)
    if in_place:
        assert out is x


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_linear_matches_reference(shape):
    layer = nn.Linear(shape[-1], 2 * shape[-1] + 1, np.random.default_rng(4))
    layer.bias.data[...] = np.random.default_rng(5).standard_normal(
        layer.out_features
    )
    x = data(shape, seed=6)
    assert bitwise(layer(x), x @ layer.weight.data + layer.bias.data)


@pytest.mark.parametrize("masked", [False, True], ids=["dense", "key-mask"])
def test_attention_core_matches_reference(masked):
    rng = np.random.default_rng(7)
    mha = nn.MultiHeadAttention(48, 3, rng)
    mha.qkv.bias.data[...] = rng.standard_normal(mha.qkv.out_features)
    x = rng.standard_normal((24, 64, 48))
    key_mask = rng.random((24, 64)) < 0.3 if masked else None
    assert bitwise(mha(x, key_mask=key_mask), reference_attention(mha, x, key_mask))


def test_packed_runs_match_dense_per_sequence():
    """A slab of runs gives each sequence the rows its dense call gives."""
    rng = np.random.default_rng(8)
    block = nn.TransformerBlock(24, 3, 2.0, rng)
    seqs = [rng.standard_normal((2, n, 24)) for n in (3, 5, 9)]
    slab = np.concatenate([s.reshape(-1, 24) for s in seqs])
    runs, start = [], 0
    for s in seqs:
        runs.append((start, s.shape[0], s.shape[1]))
        start += s.shape[0] * s.shape[1]
    with nn.inference():
        packed = block(slab, runs=runs)
        dense = np.concatenate([block(s).reshape(-1, 24) for s in seqs])
    assert bitwise(packed, dense)


def test_packed_runs_refused_while_caching():
    block = nn.TransformerBlock(24, 3, 2.0, np.random.default_rng(9))
    with pytest.raises(ValueError, match="inference"):
        block(np.zeros((4, 24)), runs=[(0, 2, 2)])


class TestInferenceContext:
    def test_forwards_keep_no_caches(self):
        rng = np.random.default_rng(10)
        block = nn.TransformerBlock(24, 3, 2.0, rng)
        conv = nn.Conv2d(2, 4, 3, rng, padding=1)
        with nn.inference():
            block(rng.standard_normal((2, 5, 24)))
            conv(rng.standard_normal((2, 2, 8, 8)))
        cached = [
            name
            for module in (block, block.attn, block.attn.qkv, block.norm1,
                           block.mlp.act, block.mlp.fc1, conv)
            for name in vars(module)
            if name.startswith("_")
        ]
        assert cached == []

    def test_keeps_training_caches_for_backward(self):
        """An inference forward between a forward and its backward
        leaves the backward's gradients bitwise unchanged."""
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 5, 24))
        grad = rng.standard_normal((2, 5, 24))
        grads = []
        for interleave in (False, True):
            block = nn.TransformerBlock(24, 3, 2.0, np.random.default_rng(12))
            block(x)
            if interleave:
                with nn.inference():
                    block(rng.standard_normal((3, 7, 24)))
            grad_in = block.backward(grad)
            grads.append([grad_in] + [p.grad.copy() for p in block.parameters()])
        assert all(bitwise(a, b) for a, b in zip(*grads))

    def test_nests_and_restores_on_exception(self):
        assert caching()
        with pytest.raises(RuntimeError):
            with nn.inference():
                with nn.inference():
                    assert not caching()
                assert not caching()
                raise RuntimeError("boom")
        assert caching()

    def test_is_per_thread(self):
        seen = []
        with nn.inference():
            worker = threading.Thread(target=lambda: seen.append(caching()))
            worker.start()
            worker.join(timeout=10)
        assert not worker.is_alive() and seen == [True]
