"""Normalization layers: LayerNorm (transformers) and BatchNorm2d (CNNs)."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter, caching

__all__ = ["LayerNorm", "BatchNorm2d"]


class LayerNorm(Module):
    """Layer normalization over the trailing feature axis."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim), name="gamma")
        self.beta = Parameter(np.zeros(dim), name="beta")

    def forward(self, x: np.ndarray) -> np.ndarray:
        # The steps of ``np.var`` with its centred array kept, then the
        # affine map written into the squares' buffer: two full-size
        # arrays instead of five, bitwise-equal to
        # ``gamma * (x - mean) / sqrt(x.var() + eps) + beta``.
        mean = x.mean(axis=-1, keepdims=True)
        x_hat = x - mean
        out = np.square(x_hat)
        var = out.sum(axis=-1, keepdims=True)
        var /= x.shape[-1]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std
        if caching():
            self._inv_std, self._x_hat = inv_std, x_hat
        np.multiply(x_hat, self.gamma.data, out=out)
        out += self.beta.data
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x_hat, inv_std = self._x_hat, self._inv_std
        flat_g = grad.reshape(-1, self.dim)
        flat_xh = x_hat.reshape(-1, self.dim)
        self.gamma.grad += (flat_g * flat_xh).sum(axis=0)
        self.beta.grad += flat_g.sum(axis=0)
        g = grad * self.gamma.data
        # d/dx of (x - mean) / std with mean/var both functions of x.
        mean_g = g.mean(axis=-1, keepdims=True)
        mean_gx = (g * x_hat).mean(axis=-1, keepdims=True)
        return inv_std * (g - mean_g - x_hat * mean_gx)


class BatchNorm2d(Module):
    """Batch normalization over ``(B, H, W)`` per channel with running stats."""

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(channels), name="gamma")
        self.beta = Parameter(np.zeros(channels), name="beta")
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            )
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        if caching():
            self._inv_std = inv_std
            self._x_hat = x_hat
            self._n = x.shape[0] * x.shape[2] * x.shape[3]
        return (
            self.gamma.data[None, :, None, None] * x_hat
            + self.beta.data[None, :, None, None]
        )

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x_hat = self._x_hat
        self.gamma.grad += (grad * x_hat).sum(axis=(0, 2, 3))
        self.beta.grad += grad.sum(axis=(0, 2, 3))
        g = grad * self.gamma.data[None, :, None, None]
        if not self.training:
            return g * self._inv_std[None, :, None, None]
        n = self._n
        sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = (g * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        return (
            self._inv_std[None, :, None, None]
            * (g - sum_g / n - x_hat * sum_gx / n)
        )
