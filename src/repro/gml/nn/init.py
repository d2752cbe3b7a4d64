"""Weight initialisation utilities (Xavier/Glorot uniform, zeros)."""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "zeros_init"]


def xavier_uniform(shape, gain: float = 1.0, seed: int = 0) -> np.ndarray:
    """Glorot & Bengio (2010) uniform initialisation."""
    rng = np.random.default_rng(seed)
    fan_in = shape[0] if len(shape) > 1 else shape[0]
    fan_out = shape[-1]
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def zeros_init(shape) -> np.ndarray:
    return np.zeros(shape)
