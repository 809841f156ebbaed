"""Deterministic random-number-generator plumbing.

Every stochastic component in the library accepts a ``numpy.random.Generator``
explicitly; these helpers derive independent child generators from a seed so
that experiments are reproducible and components do not perturb each other's
streams.
"""

from __future__ import annotations

import hashlib

import numpy as np


def rng_from_seed(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a Generator from a seed, passing through existing generators."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rng(rng: np.random.Generator, label: str) -> np.random.Generator:
    """Derive an independent child generator, namespaced by ``label``."""
    # Hash the label into 4 uint32 words for SeedSequence entropy: a stable
    # digest, not the salted built-in ``hash``, so every process agrees.
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = np.frombuffer(digest[:16], dtype="<u4")
    child_seed = rng.integers(0, 2 ** 32, size=4, dtype=np.uint64)
    entropy = [int(w) for w in child_seed] + [int(w) for w in words]
    return np.random.default_rng(np.random.SeedSequence(entropy))
