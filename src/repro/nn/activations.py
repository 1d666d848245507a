"""Element-wise activation layers with cached backward passes."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.module import Module, caching

__all__ = ["ReLU", "LeakyReLU", "GELU", "Sigmoid", "Tanh", "Identity"]


class ReLU(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        if caching():
            self._mask = mask
        return x * mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._mask


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        if caching():
            self._mask = mask
        return np.where(mask, x, self.negative_slope * x)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return np.where(self._mask, grad, self.negative_slope * grad)


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


class Tanh(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.tanh(x)
        if caching():
            self._out = out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * (1.0 - self._out**2)


class Identity(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad
