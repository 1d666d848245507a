"""Core module/parameter abstractions of the numpy DNN framework.

The framework follows the classic layer-wise backpropagation design: every
:class:`Module` implements a ``forward`` pass that caches whatever it needs,
and a ``backward`` pass that receives the gradient of the loss with respect
to the module output and returns the gradient with respect to the module
input, accumulating parameter gradients along the way.

This is deliberately simpler than a full autograd tape: the networks in this
repository (ViT segmentation, ROI prediction CNN, RITnet/EdGaze baselines)
are all feed-forward chains with a small number of residual connections,
which the layer classes model explicitly.

Inside :func:`inference` forwards store no backward caches: a prediction
neither holds whole-rank activations alive nor overwrites the caches of a
training forward whose backward is still to come.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = ["Parameter", "Module", "Sequential", "inference", "caching"]

_mode = threading.local()


def caching() -> bool:
    """Whether forwards store what their backward reads (False in :func:`inference`)."""
    return getattr(_mode, "caching", True)


@contextmanager
def inference():
    """Run this thread's forwards without storing backward caches.

    Every layer that keeps a backward cache skips it while this context is
    open, so a forward inside it has no backward.  Contexts nest, and the
    previous state comes back on exit, exception or not.
    """
    previous = caching()
    _mode.caching = False
    try:
        yield
    finally:
        _mode.caching = previous


class Parameter:
    """A trainable tensor: the value plus its accumulated gradient.

    Parameters
    ----------
    data:
        Initial value. Stored as ``float64`` for numerically robust
        small-scale training (the default numpy dtype).
    name:
        Optional human-readable identifier used in state dicts.
    """

    def __init__(self, data: np.ndarray, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __getstate__(self) -> dict:
        """Pickle without the gradient buffer.

        Parameters travel across process boundaries constantly — the
        engine ships whole stage graphs to shard workers and the
        artifact store persists trained pipelines — and no consumer
        reads a *shipped* gradient (a receiver that trains zeroes it
        first).  Dropping ``grad`` halves every such payload.
        """
        return {"data": self.data, "name": self.name}

    def __setstate__(self, state: dict) -> None:
        self.data = state["data"]
        self.name = state["name"]
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class Module:
    """Base class for all layers and networks.

    Subclasses implement :meth:`forward` and :meth:`backward`.  Parameters
    and sub-modules assigned as attributes are discovered automatically, so
    ``parameters()``/``state_dict()`` work without manual registration.
    """

    def __init__(self):
        self.training = True

    # -- attribute discovery ------------------------------------------------
    def _children(self) -> Iterator[tuple[str, "Module"]]:
        for key, value in vars(self).items():
            if isinstance(value, Module):
                yield key, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{key}.{i}", item

    def _own_parameters(self) -> Iterator[tuple[str, Parameter]]:
        for key, value in vars(self).items():
            if isinstance(value, Parameter):
                yield key, value

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth first."""
        for key, param in self._own_parameters():
            yield (f"{prefix}{key}", param)
        for key, child in self._children():
            yield from child.named_parameters(prefix=f"{prefix}{key}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- train / eval mode ---------------------------------------------------
    def train(self) -> "Module":
        self.training = True
        for _, child in self._children():
            child.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for _, child in self._children():
            child.eval()
        return self

    # -- serialization --------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            if param.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{param.data.shape} vs {state[name].shape}"
                )
            param.data[...] = state[name]

    # -- compute -----------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> np.ndarray:
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """A chain of modules applied in order; backward runs in reverse."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.modules = list(modules)

    def append(self, module: Module) -> None:
        self.modules.append(module)

    def __len__(self) -> int:
        return len(self.modules)

    def __getitem__(self, index: int) -> Module:
        return self.modules[index]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for module in self.modules:
            x = module(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for module in reversed(self.modules):
            grad = module.backward(grad)
        return grad
