"""Convolutional layers implemented with im2col, plus pooling and upsampling.

These back the ROI prediction network (3 conv + 2 FC per the paper) and the
RITnet/EdGaze CNN baselines.  All layers operate on ``(B, C, H, W)`` arrays.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter, caching

__all__ = ["Conv2d", "DepthwiseConv2d", "MaxPool2d", "AvgPool2d", "UpsampleNearest2d"]


class Conv2d(Module):
    """2-D convolution (cross-correlation) with square kernels."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_normal(
                (out_channels, in_channels, kernel_size, kernel_size), rng
            ),
            name="weight",
        )
        self.bias = Parameter(init.zeros((out_channels,)), name="bias") if bias else None

    def forward(self, x: np.ndarray) -> np.ndarray:
        cols, oh, ow = F.im2col(x, self.kernel_size, self.stride, self.padding)
        if caching():
            self._input_shape = x.shape
            self._cols = cols  # (B, C*K*K, OH*OW)
        w = self.weight.data.reshape(self.out_channels, -1)  # (O, C*K*K)
        # Row-independent GEMM: one (O, K) @ (K, P) product per sample.
        # Each sample's GEMM has a batch-size-independent shape, so the
        # result is bitwise-invariant under stacking (a batched einsum /
        # batched BLAS call is not — kernel selection and accumulation
        # order can depend on the stacked batch size).  The staged
        # engine's batched ROI-predict path relies on this contract.
        out = np.stack([w @ cols[b] for b in range(cols.shape[0])])
        if self.bias is not None:
            out = out + self.bias.data[None, :, None]
        return out.reshape(x.shape[0], self.out_channels, oh, ow)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        batch = grad.shape[0]
        grad2 = grad.reshape(batch, self.out_channels, -1)  # (B, O, P)
        w = self.weight.data.reshape(self.out_channels, -1)
        self.weight.grad += np.einsum("bop,bkp->ok", grad2, self._cols).reshape(
            self.weight.data.shape
        )
        if self.bias is not None:
            self.bias.grad += grad2.sum(axis=(0, 2))
        grad_cols = np.einsum("ok,bop->bkp", w, grad2)
        return F.col2im(
            grad_cols, self._input_shape, self.kernel_size, self.stride, self.padding
        )

    def mac_count(self, height: int, width: int) -> int:
        """MACs for one input frame of the given spatial size."""
        oh = F.conv_output_size(height, self.kernel_size, self.stride, self.padding)
        ow = F.conv_output_size(width, self.kernel_size, self.stride, self.padding)
        return (
            oh * ow * self.out_channels * self.in_channels * self.kernel_size**2
        )


class DepthwiseConv2d(Module):
    """Depthwise convolution (one filter per channel), as used by EdGaze."""

    def __init__(
        self,
        channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ):
        super().__init__()
        self.channels = channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_normal((channels, 1, kernel_size, kernel_size), rng),
            name="weight",
        )
        self.bias = Parameter(init.zeros((channels,)), name="bias") if bias else None

    def forward(self, x: np.ndarray) -> np.ndarray:
        cols, oh, ow = F.im2col(x, self.kernel_size, self.stride, self.padding)
        batch = x.shape[0]
        k2 = self.kernel_size**2
        cols = cols.reshape(batch, self.channels, k2, oh * ow)
        if caching():
            self._input_shape = x.shape
            self._cols = cols
        w = self.weight.data.reshape(self.channels, k2)
        out = np.einsum("ck,bckp->bcp", w, cols)
        if self.bias is not None:
            out = out + self.bias.data[None, :, None]
        return out.reshape(batch, self.channels, oh, ow)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        batch = grad.shape[0]
        k2 = self.kernel_size**2
        grad2 = grad.reshape(batch, self.channels, -1)
        self.weight.grad += np.einsum("bcp,bckp->ck", grad2, self._cols).reshape(
            self.weight.data.shape
        )
        if self.bias is not None:
            self.bias.grad += grad2.sum(axis=(0, 2))
        w = self.weight.data.reshape(self.channels, k2)
        grad_cols = np.einsum("ck,bcp->bckp", w, grad2)
        grad_cols = grad_cols.reshape(batch, self.channels * k2, -1)
        return F.col2im(
            grad_cols, self._input_shape, self.kernel_size, self.stride, self.padding
        )

    def mac_count(self, height: int, width: int) -> int:
        oh = F.conv_output_size(height, self.kernel_size, self.stride, self.padding)
        ow = F.conv_output_size(width, self.kernel_size, self.stride, self.padding)
        return oh * ow * self.channels * self.kernel_size**2


class MaxPool2d(Module):
    """Non-overlapping max pooling (kernel == stride)."""

    def __init__(self, kernel_size: int):
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, channels, height, width = x.shape
        k = self.kernel_size
        if height % k or width % k:
            raise ValueError(f"input {height}x{width} not divisible by pool {k}")
        windows = x.reshape(batch, channels, height // k, k, width // k, k)
        windows = windows.transpose(0, 1, 2, 4, 3, 5).reshape(
            batch, channels, height // k, width // k, k * k
        )
        if caching():
            self._input_shape = x.shape
            self._argmax = windows.argmax(axis=-1)
        return windows.max(axis=-1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        batch, channels, oh, ow = grad.shape
        k = self.kernel_size
        out = np.zeros((batch, channels, oh, ow, k * k), dtype=grad.dtype)
        b, c, i, j = np.ogrid[:batch, :channels, :oh, :ow]
        out[b, c, i, j, self._argmax] = grad
        out = out.reshape(batch, channels, oh, ow, k, k).transpose(0, 1, 2, 4, 3, 5)
        return out.reshape(self._input_shape)


class AvgPool2d(Module):
    """Non-overlapping average pooling (kernel == stride)."""

    def __init__(self, kernel_size: int):
        super().__init__()
        self.kernel_size = kernel_size

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, channels, height, width = x.shape
        k = self.kernel_size
        if height % k or width % k:
            raise ValueError(f"input {height}x{width} not divisible by pool {k}")
        if caching():
            self._input_shape = x.shape
        windows = x.reshape(batch, channels, height // k, k, width // k, k)
        return windows.mean(axis=(3, 5))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        out = np.repeat(np.repeat(grad, k, axis=2), k, axis=3) / (k * k)
        return out.reshape(self._input_shape)


class UpsampleNearest2d(Module):
    """Nearest-neighbour spatial upsampling by an integer factor."""

    def __init__(self, scale: int):
        super().__init__()
        self.scale = scale

    def forward(self, x: np.ndarray) -> np.ndarray:
        s = self.scale
        return np.repeat(np.repeat(x, s, axis=2), s, axis=3)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        s = self.scale
        batch, channels, height, width = grad.shape
        windows = grad.reshape(batch, channels, height // s, s, width // s, s)
        return windows.sum(axis=(3, 5))
