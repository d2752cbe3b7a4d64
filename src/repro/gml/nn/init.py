"""Weight initialisation utilities (Xavier/Glorot uniform, zeros)."""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "zeros_init"]


def xavier_uniform(shape, seed: int = 0) -> np.ndarray:
    """Glorot & Bengio (2010) uniform initialisation."""
    rng = np.random.default_rng(seed)
    fan_in = shape[0]
    fan_out = shape[-1]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def zeros_init(shape) -> np.ndarray:
    return np.zeros(shape)
