"""MADE: autoregressive property, training, conditionals."""

from __future__ import annotations

import numpy as np

from repro.ce.made import MADE, _build_masks


def toy_ids(n=600, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 4, n)
    b = (a + rng.integers(0, 2, n)) % 4
    c = rng.integers(0, 3, n)
    return np.stack([a, b, c], axis=1)


class TestMasks:
    def test_shapes(self):
        m1, m2, m3 = _build_masks([4, 4, 3], 16, np.random.default_rng(0))
        assert m1.shape == (11, 16)
        assert m2.shape == (16, 16)
        assert m3.shape == (16, 11)

    def test_first_column_output_disconnected(self):
        m1, m2, m3 = _build_masks([4, 4, 3], 16, np.random.default_rng(0))
        # Output block of column 1 (degree 1) needs hidden degree < 1: none.
        assert m3[:, :4].sum() == 0


class TestAutoregressiveProperty:
    def test_output_block_ignores_later_inputs(self):
        made = MADE([4, 4, 3], hidden=16, seed=0)
        made._cache_weights()
        ids = toy_ids(8)
        x_full = made.one_hot(ids)
        # Zero out blocks >= 1 and check block-1 logits are unchanged when
        # later blocks change.
        x_a = x_full.copy()
        x_b = x_full.copy()
        x_b[:, 4:] = 0.0  # wipe columns 1 and 2
        probs_a = made.conditional_probs(x_a, 1)
        # Keep column 0, wipe later columns:
        x_b[:, :4] = x_full[:, :4]
        probs_b = made.conditional_probs(x_b, 1)
        np.testing.assert_allclose(probs_a, probs_b)

    def test_first_column_unconditional(self):
        made = MADE([4, 4, 3], hidden=16, seed=0)
        made._cache_weights()
        x1 = np.zeros((2, made.input_dim))
        x2 = made.one_hot(toy_ids(2))
        np.testing.assert_allclose(made.conditional_probs(x1, 0),
                                   made.conditional_probs(x2, 0))


class TestTraining:
    def test_nll_decreases(self):
        ids = toy_ids()
        made = MADE([4, 4, 3], hidden=24, seed=1)
        history = made.fit(ids, epochs=6, lr=5e-3, seed=2)
        assert history[-1] < history[0]

    def test_learns_dependence(self):
        """After training, P(b | a) should reflect b ≈ a or a+1 (mod 4)."""
        ids = toy_ids(n=2000)
        made = MADE([4, 4, 3], hidden=32, seed=1)
        made.fit(ids, epochs=12, lr=8e-3, seed=2)
        x = np.zeros((1, made.input_dim))
        x[0, 2] = 1.0  # a = 2
        probs = made.conditional_probs(x, 1)[0]
        # b ∈ {2, 3} should hold ~all the mass.
        assert probs[2] + probs[3] > 0.7

    def test_conditionals_are_distributions(self):
        made = MADE([4, 4, 3], hidden=16, seed=3)
        made._cache_weights()
        x = made.one_hot(toy_ids(16))
        for col in range(3):
            probs = made.conditional_probs(x, col)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(probs >= 0)

    def test_one_hot_layout(self):
        made = MADE([3, 2], hidden=8, seed=0)
        x = made.one_hot(np.array([[2, 0]]))
        np.testing.assert_array_equal(x[0], [0, 0, 1, 1, 0])


class TestNumpyForward:
    def test_in_place_forward_matches_expression_bitwise(self):
        """The in-place inference ops give the bits of the plain expression
        (same GEMM shapes; the adds, ReLUs and softmax are elementwise)."""
        ids = toy_ids(300)
        made = MADE([4, 4, 3], hidden=16, seed=5)
        made.fit(ids, epochs=2, seed=6)
        x = made.one_hot(toy_ids(64, seed=7))
        x[:, 4:] = 0.0
        h = np.maximum(x @ made._w1 + made._b1, 0.0)
        h = np.maximum(h @ made._w2 + made._b2, 0.0)
        logits = h @ made._w3 + made._b3
        assert made._forward_numpy(x).tobytes() == logits.tobytes()
        for col, (offset, width) in enumerate(zip(made.offsets[:-1],
                                                  made.bins)):
            block = logits[:, offset:offset + width]
            block = block - block.max(axis=1, keepdims=True)
            exp = np.exp(block)
            expected = exp / exp.sum(axis=1, keepdims=True)
            assert made.conditional_probs(x, col).tobytes() == \
                expected.tobytes()
