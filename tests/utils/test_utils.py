"""Utility modules: RNG plumbing, timing, validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import rng_from_seed, spawn_rng
from repro.utils.timing import Timer
from repro.utils.validation import require, require_in_range


class TestRng:
    def test_seed_deterministic(self):
        assert rng_from_seed(7).integers(0, 100) == rng_from_seed(7).integers(0, 100)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert rng_from_seed(gen) is gen

    def test_spawn_differs_by_label(self):
        parent_a = rng_from_seed(1)
        parent_b = rng_from_seed(1)
        child_x = spawn_rng(parent_a, "x")
        child_y = spawn_rng(parent_b, "y")
        assert child_x.integers(0, 1 << 30) != child_y.integers(0, 1 << 30)

    def test_spawn_deterministic(self):
        a = spawn_rng(rng_from_seed(3), "model")
        b = spawn_rng(rng_from_seed(3), "model")
        assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)

    def test_spawn_same_across_hash_seeds(self):
        """The label hash must not follow the interpreter's string-hash salt."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[2] / "src")
        code = ("from repro.utils.rng import rng_from_seed, spawn_rng; "
                "print(spawn_rng(rng_from_seed(3), 'model').random(2).tolist())")
        draws = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True)
            draws.add(out.stdout.strip())
        assert len(draws) == 1
        assert draws == {str(spawn_rng(rng_from_seed(3), "model")
                             .random(2).tolist())}


class TestTimer:
    def test_measures_elapsed(self):
        import time
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.009

    def test_exception_does_not_swallow(self):
        with pytest.raises(RuntimeError):
            with Timer():
                raise RuntimeError("boom")


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ValueError, match="nope"):
            require(False, "nope")

    def test_require_in_range(self):
        require_in_range(0.5, 0.0, 1.0, "x")
        with pytest.raises(ValueError, match="x must be"):
            require_in_range(1.5, 0.0, 1.0, "x")
