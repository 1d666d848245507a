"""A from-scratch numpy deep-learning framework.

This subpackage substitutes for PyTorch in the BlissCam reproduction: it
provides every building block the paper's networks need (convolutions,
multi-head attention, layer/batch norm, GELU, cross-entropy/MSE losses,
Adam over a flat parameter arena) with full backpropagation, implemented
purely in numpy.  Forwards run inside :func:`inference` keep no backward
caches.
"""

from repro.nn.activations import GELU, ReLU, Sigmoid
from repro.nn.attention import MLP, MultiHeadAttention, TransformerBlock
from repro.nn.conv import Conv2d, DepthwiseConv2d, MaxPool2d, UpsampleNearest2d
from repro.nn.layers import Flatten, Linear
from repro.nn.losses import CrossEntropyLoss, MSELoss
from repro.nn.module import Module, Parameter, Sequential, inference
from repro.nn.norm import BatchNorm2d, LayerNorm
from repro.nn.optim import Adam

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "inference",
    "Linear",
    "Flatten",
    "Conv2d",
    "DepthwiseConv2d",
    "MaxPool2d",
    "UpsampleNearest2d",
    "LayerNorm",
    "BatchNorm2d",
    "ReLU",
    "GELU",
    "Sigmoid",
    "MultiHeadAttention",
    "MLP",
    "TransformerBlock",
    "CrossEntropyLoss",
    "MSELoss",
    "Adam",
]
