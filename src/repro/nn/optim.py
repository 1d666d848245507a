"""Adam over a flat parameter arena.

An :class:`Optimizer` owns the storage of the parameters it updates: it
copies them into one flat float64 ``data`` buffer and one flat ``grad``
buffer, then rebinds every ``Parameter.data`` / ``.grad`` to a reshaped
view into them.  ``zero_grad`` is then one fill, gradient clipping one
squared pass plus per-parameter sums, and the Adam update a few
vectorized ops over the whole buffer.  Every update op is elementwise,
so the results are bitwise-equal to the per-parameter loops they
replace.

The contract this puts on everything else: **parameters are views**.
Write them in place (``p.data[...] = x``, ``p.grad += g``) and never
rebind ``p.data`` or ``p.grad``.  Before touching the buffers, the
optimizer checks that each parameter still holds its views and raises
``RuntimeError`` if one was rebound, or if a newer optimizer re-packed
the same parameters (the newest optimizer over a parameter owns it).
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from repro.nn.module import Parameter

__all__ = ["Adam"]


class Optimizer:
    """The flat parameter arena shared by every optimizer.

    Attributes ``data`` and ``grad`` are the flat buffers; parameter
    ``i`` occupies ``[start, stop)`` of both, in the order given.
    """

    def __init__(self, params: list[Parameter], lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive: {lr}")
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("a parameter appears twice in the optimizer's list")
        self.lr = lr
        stops = list(accumulate(p.size for p in self.params))
        self._spans = list(zip([0, *stops], stops))
        self._pack()

    def _pack(self) -> None:
        """Copy the parameters into fresh flat buffers and rebind them."""
        size = self._spans[-1][1] if self._spans else 0
        self.data = np.empty(size)
        self.grad = np.empty(size)
        self._scratch = (np.empty(size), np.empty(size))
        self._views = []
        for p, (start, stop) in zip(self.params, self._spans):
            shape = p.data.shape
            self.data[start:stop] = p.data.ravel()
            self.grad[start:stop] = p.grad.ravel()
            p.data = self.data[start:stop].reshape(shape)
            p.grad = self.grad[start:stop].reshape(shape)
            self._views.append((p.data, p.grad))

    def _check_attached(self) -> None:
        for i, (p, (data, grad)) in enumerate(zip(self.params, self._views)):
            if p.data is not data or p.grad is not grad:
                raise RuntimeError(
                    f"parameter {i} ({p.name or p.data.shape}) is detached "
                    "from this optimizer's arena: its .data or .grad was "
                    "rebound, or a newer optimizer re-packed it; write "
                    "parameters in place and step the newest optimizer"
                )

    def __getstate__(self) -> dict:
        """Pickle without the buffers: they are rebuilt from the params."""
        state = self.__dict__.copy()
        for key in ("data", "grad", "_scratch", "_views"):
            del state[key]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._pack()

    def zero_grad(self) -> None:
        self._check_attached()
        self.grad.fill(0.0)

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale the gradients so their global L2 norm is at most ``max_norm``.

        Returns the pre-clip norm.  Reduction order (a documented
        choice): the flat gradient is squared once, each parameter's
        span is summed by ``np.add.reduce`` (the pairwise sum behind
        ``np.sum``), and those sums are added as Python floats in
        parameter order — the order of the per-parameter
        ``sqrt(sum(float(np.sum(p.grad**2)) for p in params))``, whose
        bits it reproduces.  One sum over the whole buffer would round
        differently.
        """
        self._check_attached()
        squares = np.multiply(self.grad, self.grad, out=self._scratch[0])
        total = np.sqrt(
            sum(
                float(np.add.reduce(squares[start:stop]))
                for start, stop in self._spans
            )
        )
        if total > max_norm and total > 0:
            self.grad *= max_norm / total
        return total

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam with bias correction (Kingma & Ba)."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = np.zeros_like(self.data)
        self._v = np.zeros_like(self.data)
        self._t = 0

    def step(self) -> None:
        """One update of every parameter, as whole-buffer ops.

        The op sequence is the per-parameter
        ``m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g**2;
        data -= lr*(m/bias1) / (sqrt(v/bias2) + eps)`` with
        ``g = grad + weight_decay*data``, written into two scratch
        buffers so no temporaries are allocated.
        """
        self._check_attached()
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        m, v = self._m, self._v
        a, b = self._scratch
        grad = self.grad
        if self.weight_decay:
            grad = np.multiply(self.data, self.weight_decay, out=a)
            grad += self.grad
        m *= self.beta1
        m += np.multiply(grad, 1 - self.beta1, out=b)
        v *= self.beta2
        b = np.multiply(grad, grad, out=b)
        b *= 1 - self.beta2
        v += b
        np.divide(m, bias1, out=a)
        a *= self.lr
        np.divide(v, bias2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        self.data -= a
