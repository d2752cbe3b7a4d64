"""Gradient-descent optimizer (Adam) and gradient-norm clipping."""

from __future__ import annotations

from typing import List, Optional, Tuple

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
        #: First and second moments per parameter, made by the first
        #: ``zero_grad`` (before the first forward, so a run's first step
        #: already holds them) and updated in place.
        self._moments: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
        self._step = 0

    def zero_grad(self) -> None:
        super().zero_grad()
        self._state()

    def _state(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        if self._moments is None:
            self._moments = [(np.zeros_like(parameter.data), np.zeros_like(parameter.data))
                             for parameter in self.parameters]
        return self._moments

    def step(self) -> None:
        self._step += 1
        for parameter, (m, v) in zip(self.parameters, self._state()):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad ** 2
            m_hat = m / (1 - self.beta1 ** self._step)
            v_hat = v / (1 - self.beta2 ** self._step)
            parameter.data = parameter.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
