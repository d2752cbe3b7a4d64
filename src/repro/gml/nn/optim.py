"""Gradient-descent optimizer (Adam) and gradient-norm clipping."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.exceptions import TrainingError
from repro.gml.autograd import Parameter

__all__ = ["Optimizer", "Adam", "clip_grad_norm"]


def clip_grad_norm(parameters: List[Parameter], max_norm: float) -> float:
    """Clip the global gradient norm in place; returns the pre-clip norm."""
    total = 0.0
    for parameter in parameters:
        if parameter.grad is not None:
            total += float((parameter.grad ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for parameter in parameters:
            if parameter.grad is not None:
                parameter.grad = parameter.grad * scale
    return norm


class Optimizer:
    """Base optimizer: holds parameters, applies updates, zeroes gradients."""

    def __init__(self, parameters: List[Parameter], lr: float) -> None:
        if lr <= 0:
            raise TrainingError("learning rate must be positive")
        self.parameters = list(parameters)
        if not self.parameters:
            raise TrainingError("optimizer needs at least one parameter")
        self.lr = lr

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015)."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, parameters: List[Parameter], lr: float = 0.01,
                 weight_decay: float = 0.0) -> None:
        super().__init__(parameters, lr)
        self.weight_decay = weight_decay
        #: Each parameter's start and end with the parameters laid end to
        #: end; the first and second moments are laid out the same way.
        self._bounds = np.cumsum([0] + [p.data.size for p in self.parameters]).tolist()
        self._m, self._v = np.zeros(self._bounds[-1]), np.zeros(self._bounds[-1])
        self._step = 0

    def step(self) -> None:
        self._step += 1
        if all(parameter.grad is not None for parameter in self.parameters):
            self._update(self.parameters, self._m, self._v, self._bounds)
            return
        for parameter, start, end in zip(self.parameters, self._bounds, self._bounds[1:]):
            if parameter.grad is not None:
                self._update([parameter], self._m[start:end], self._v[start:end],
                             [0, end - start])

    def _update(self, parameters: List[Parameter], m: np.ndarray, v: np.ndarray,
                bounds: List[int]) -> None:
        """Adam on ``parameters`` laid end to end at ``bounds``, whose moments
        are ``m`` and ``v``: every operation is element-wise, so each element
        gets the bits a per-parameter update gives it.  Each parameter's new
        data is a view of the result."""
        grad = np.concatenate([parameter.grad.reshape(-1) for parameter in parameters])
        data = np.concatenate([parameter.data.reshape(-1) for parameter in parameters])
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad ** 2
        m_hat = m / (1 - self.beta1 ** self._step)
        v_hat = v / (1 - self.beta2 ** self._step)
        data = data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        for parameter, start, end in zip(parameters, bounds, bounds[1:]):
            parameter.data = data[start:end].reshape(parameter.data.shape)
