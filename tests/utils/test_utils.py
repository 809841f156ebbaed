"""Utility modules: RNG plumbing."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import rng_from_seed


class TestRng:
    def test_seed_deterministic(self):
        assert rng_from_seed(7).integers(0, 100) == rng_from_seed(7).integers(0, 100)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert rng_from_seed(gen) is gen
