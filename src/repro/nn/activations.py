"""Element-wise activation layers with cached backward passes."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.module import Module, caching

__all__ = ["ReLU", "GELU", "Sigmoid"]


class ReLU(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        if caching():
            self._mask = mask
        return x * mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._mask


class GELU(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        if caching():
            self._x = x
        return F.gelu(x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * F.gelu_grad(self._x)


class Sigmoid(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        out = F.sigmoid(x)
        if caching():
            self._out = out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._out * (1.0 - self._out)
