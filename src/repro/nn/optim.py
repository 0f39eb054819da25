"""Gradient-based optimizers.

The paper trains with mini-batch SGD, momentum 0.9, fixed learning rate 0.006
and weight decay 1e-5 (§4.1); :class:`SGD` implements exactly that update,
and trains the deep baselines too.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.nn.parameter import Parameter


class Optimizer:
    """Base class holding the parameter list and shared bookkeeping."""

    def __init__(self, parameters: Iterable[Parameter], learning_rate: float) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0: {learning_rate}")
        self.learning_rate = learning_rate

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """SGD with classical momentum and decoupled-from-nothing L2 weight decay.

    The update matches the paper's setup: ``v <- momentum*v + (g + wd*w)``
    then ``w <- w - lr*v``.  Parameters flagged ``weight_decay_enabled=False``
    (batch-norm affine terms) skip the decay.

    The update is fused in place: velocity and a per-parameter scratch buffer
    are preallocated once, so a step allocates nothing and inherits each
    parameter's dtype (create the optimizer *after* casting the network with
    ``Module.to``).
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        learning_rate: float = 0.006,
        momentum: float = 0.9,
        weight_decay: float = 1e-5,
    ) -> None:
        super().__init__(parameters, learning_rate)
        if not 0 <= momentum < 1:
            raise ValueError(f"momentum must be in [0, 1): {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0: {weight_decay}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch = [np.empty_like(p.data) for p in self.parameters]

    def step(self) -> None:
        lr, mu, wd = self.learning_rate, self.momentum, self.weight_decay
        for p, v, s in zip(self.parameters, self._velocity, self._scratch):
            np.multiply(v, mu, out=v)
            v += p.grad
            if wd > 0 and p.weight_decay_enabled:
                np.multiply(p.data, wd, out=s)
                v += s
            np.multiply(v, lr, out=s)
            p.data -= s

