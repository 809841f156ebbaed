"""Deterministic random-number-generator plumbing.

Every stochastic component in the library accepts a ``numpy.random.Generator``
explicitly, or a seed that :func:`rng_from_seed` turns into one, so that
experiments are reproducible.
"""

from __future__ import annotations

import numpy as np


def rng_from_seed(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a Generator from a seed, passing through existing generators."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)

