"""Parameter initialization schemes for the numpy NN library."""

from __future__ import annotations

import numpy as np


def kaiming_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """He uniform initialization, appropriate for ReLU networks."""
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def zeros(*shape: int) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)
