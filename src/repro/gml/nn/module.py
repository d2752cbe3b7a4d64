"""Minimal module / parameter-container abstraction.

:class:`Module` mirrors the small slice of ``torch.nn.Module`` the framework
needs: automatic parameter discovery (attributes that are
:class:`~repro.gml.autograd.Parameter`, :class:`~repro.gml.autograd.Embedding`
or nested :class:`Module` / lists thereof), train/eval switching, parameter
counting and state-dict save/load for the model store.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.gml.autograd import Embedding, Parameter

__all__ = ["Module"]


class Module:
    """Base class for layers and models."""

    def __init__(self) -> None:
        self.training = True

    # -- forward ------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # -- parameter management --------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """Every parameter reachable from the attributes, each once, in
        depth-first order.  The walk keeps its own stack: a recursive
        closure refers to itself and would leave a cycle per call."""
        parameters: List[Parameter] = []
        seen = set()
        stack = list(reversed(vars(self).values()))
        while stack:
            obj = stack.pop()
            if isinstance(obj, Parameter):
                if id(obj) not in seen:
                    seen.add(id(obj))
                    parameters.append(obj)
            elif isinstance(obj, Embedding):
                stack.append(obj.weight)
            elif isinstance(obj, Module):
                stack.extend(reversed(vars(obj).values()))
            elif isinstance(obj, (list, tuple)):
                stack.extend(reversed(obj))
            elif isinstance(obj, dict):
                stack.extend(reversed(obj.values()))
        return parameters

    def num_parameters(self) -> int:
        return int(sum(p.data.size for p in self.parameters()))

    def parameter_bytes(self) -> int:
        return int(sum(p.data.nbytes for p in self.parameters()))

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    # -- train / eval ----------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for value in vars(self).values():
            if isinstance(value, Module):
                value.train(mode)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- (de)serialisation -------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {f"param_{i}": p.data.copy() for i, p in enumerate(self.parameters())}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        parameters = self.parameters()
        for index, parameter in enumerate(parameters):
            key = f"param_{index}"
            if key not in state:
                raise KeyError(f"missing parameter {key} in state dict")
            if state[key].shape != parameter.data.shape:
                raise ValueError(
                    f"shape mismatch for {key}: "
                    f"{state[key].shape} vs {parameter.data.shape}")
            parameter.data = state[key].copy()
