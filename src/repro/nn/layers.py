"""Dense and utility layers: Linear, Flatten, Dropout, Residual wrapper."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter, caching

__all__ = ["Linear", "Flatten", "Dropout", "Residual"]


class Linear(Module):
    """Affine map ``y = x @ W + b`` over the trailing axis.

    Accepts inputs of any rank >= 2; leading axes are treated as batch.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform((in_features, out_features), rng), name="weight"
        )
        self.bias = Parameter(init.zeros((out_features,)), name="bias") if bias else None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if caching():
            self._x = x
        out = x @ self.weight.data
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        flat_x = self._x.reshape(-1, self.in_features)
        flat_g = grad.reshape(-1, self.out_features)
        self.weight.grad += flat_x.T @ flat_g
        if self.bias is not None:
            self.bias.grad += flat_g.sum(axis=0)
        return grad @ self.weight.data.T

    def mac_count(self, batch_tokens: int) -> int:
        """Multiply-accumulate count for ``batch_tokens`` input rows."""
        return batch_tokens * self.in_features * self.out_features


class Flatten(Module):
    """Collapse all axes after the batch axis."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        if caching():
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._shape)


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, p: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1): {p}")
        self.p = p
        self.rng = rng

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = None
        if self.training and self.p != 0.0:
            keep = 1.0 - self.p
            mask = (self.rng.random(x.shape) < keep) / keep
        if caching():
            self._mask = mask
        return x if mask is None else x * mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask


class Residual(Module):
    """``y = x + inner(x)`` with the matching backward pass."""

    def __init__(self, inner: Module):
        super().__init__()
        self.inner = inner

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x + self.inner(x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad + self.inner.backward(grad)
