"""Multi-head self-attention and the transformer ("MHA module") block.

The paper's ViT segmentation network (Sec. III-B, Fig. 6) is built from
"MHA modules": pre-LayerNorm multi-head attention followed by a token-wise
MLP, both with residual connections — the standard ViT encoder block of
Strudel et al. (Segmenter).  Sparse inputs are handled with a key-padding
mask so empty tokens neither attend nor contribute, or, at inference, by
dropping empty tokens and packing the rest into one ``(N, D)`` slab of
*runs* (see :class:`MultiHeadAttention`).
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.activations import GELU
from repro.nn.layers import Linear
from repro.nn.module import Module, caching
from repro.nn.norm import LayerNorm

__all__ = ["MultiHeadAttention", "MLP", "TransformerBlock"]

_NEG_INF = -1e9


class MultiHeadAttention(Module):
    """Self-attention with ``heads`` heads over ``(B, T, D)`` tokens.

    ``D`` must be divisible by ``heads``.  An optional boolean key mask of
    shape ``(B, T)`` marks *valid* tokens; invalid tokens receive a large
    negative score before the softmax so they are never attended to.

    Given ``runs``, the input is instead a ``(N, D)`` slab of packed
    sequences: each ``(start, rows, length)`` run is ``rows`` sequences
    of ``length`` tokens stored back to back from slab row ``start``, and
    the runs cover the slab.  The projections run once on the whole slab
    and only the attention core runs per run.  The slab form has no
    backward, so it is refused outside :func:`repro.nn.inference`.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        super().__init__()
        if dim % heads:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.scale = 1.0 / np.sqrt(self.head_dim)
        self.qkv = Linear(dim, 3 * dim, rng)
        self.proj = Linear(dim, dim, rng)

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        batch, tokens, _ = x.shape
        return x.reshape(batch, tokens, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        batch, _, tokens, _ = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, tokens, self.dim)

    def forward(
        self,
        x: np.ndarray,
        key_mask: np.ndarray | None = None,
        runs: list[tuple[int, int, int]] | None = None,
    ) -> np.ndarray:
        qkv = self.qkv(x)  # (B, T, 3D), or (N, 3D) for a slab
        context = np.empty(qkv.shape[:-1] + (self.dim,))
        if runs is None:
            self._attend(qkv, context, key_mask)
            return self.proj(context)
        if caching():
            raise ValueError(
                "packed runs have no backward; call under repro.nn.inference()"
            )
        for start, rows, length in runs:
            stop = start + rows * length
            self._attend(
                qkv[start:stop].reshape(rows, length, -1),
                context[start:stop].reshape(rows, length, -1),
            )
        return self.proj(context)

    def _attend(
        self,
        qkv: np.ndarray,
        context: np.ndarray,
        key_mask: np.ndarray | None = None,
    ) -> None:
        """The attention core: ``(B, T, 3D)`` projections -> ``context``.

        Scores, optional key mask, softmax and the weighted sum of values,
        written head-merged into the ``(B, T, D)`` ``context``.
        """
        # All four attention contractions run as stacked matmuls (BLAS
        # dgemm per (batch, head) slice) rather than einsum: c_einsum is
        # an order of magnitude slower on these shapes and this is the
        # hottest kernel of ViT training *and* inference.  Stacked matmul
        # is per-slice row-independent for a fixed inner shape, so a
        # sequence's attention does not depend on the others stacked
        # with it (pinned end-to-end by the engine equivalence tests).
        batch, tokens, _ = qkv.shape
        q, k, v = qkv.reshape(
            batch, tokens, 3, self.heads, self.head_dim
        ).transpose(2, 0, 3, 1, 4)
        scores = np.matmul(q, k.transpose(0, 1, 3, 2))
        scores *= self.scale
        if key_mask is not None:
            scores += np.where(key_mask, 0.0, _NEG_INF)[:, None, None, :]
        attn = F.softmax(scores, axis=-1, out=scores)
        out = np.matmul(attn, v)
        context.reshape(batch, tokens, self.heads, self.head_dim)[...] = (
            out.transpose(0, 2, 1, 3)
        )
        if caching():
            self._q, self._k, self._v, self._attn = q, k, v, attn

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad_merged = self.proj.backward(grad)
        grad_out = self._split_heads(grad_merged)
        attn, q, k, v = self._attn, self._q, self._k, self._v
        grad_v = np.matmul(attn.transpose(0, 1, 3, 2), grad_out)
        grad_attn = np.matmul(grad_out, v.transpose(0, 1, 3, 2))
        # Softmax backward: dS = A * (dA - sum_k(dA * A)).
        grad_scores = attn * (
            grad_attn - np.sum(grad_attn * attn, axis=-1, keepdims=True)
        )
        grad_scores = grad_scores * self.scale
        grad_q = np.matmul(grad_scores, k)
        grad_k = np.matmul(grad_scores.transpose(0, 1, 3, 2), q)
        grad_qkv = np.concatenate(
            [self._merge_heads(g) for g in (grad_q, grad_k, grad_v)], axis=-1
        )
        return self.qkv.backward(grad_qkv)

    def mac_count(self, tokens: int) -> int:
        """MACs for one sequence of the given length (batch size 1)."""
        proj_macs = tokens * self.dim * 4 * self.dim  # qkv + output proj
        attn_macs = 2 * self.heads * tokens * tokens * self.head_dim
        return proj_macs + attn_macs


class MLP(Module):
    """Token-wise two-layer MLP with GELU, as in ViT blocks."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.fc1 = Linear(dim, hidden, rng)
        self.act = GELU()
        self.fc2 = Linear(hidden, dim, rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.fc2(self.act(self.fc1(x)))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return self.fc1.backward(self.act.backward(self.fc2.backward(grad)))

    def mac_count(self, tokens: int) -> int:
        return tokens * (
            self.fc1.in_features * self.fc1.out_features
            + self.fc2.in_features * self.fc2.out_features
        )


class TransformerBlock(Module):
    """Pre-LN transformer block: ``x + MHA(LN(x))`` then ``y + MLP(LN(y))``."""

    def __init__(
        self, dim: int, heads: int, mlp_ratio: float, rng: np.random.Generator
    ):
        super().__init__()
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, heads, rng)
        self.norm2 = LayerNorm(dim)
        self.mlp = MLP(dim, int(dim * mlp_ratio), rng)

    def forward(
        self,
        x: np.ndarray,
        key_mask: np.ndarray | None = None,
        runs: list[tuple[int, int, int]] | None = None,
    ) -> np.ndarray:
        """``(B, T, D)`` tokens, or a packed ``(N, D)`` slab of ``runs``
        (see :class:`MultiHeadAttention`); every other layer is token-wise."""
        y = self.attn(self.norm1(x), key_mask=key_mask, runs=runs)
        y += x
        out = self.mlp(self.norm2(y))
        out += y
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad_y = grad + self.norm2.backward(self.mlp.backward(grad))
        return grad_y + self.norm1.backward(self.attn.backward(grad_y))

    def mac_count(self, tokens: int) -> int:
        return self.attn.mac_count(tokens) + self.mlp.mac_count(tokens)
