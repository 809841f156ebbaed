"""Loss functions: values and gradient flow."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn.autograd import Tensor


class TestMSE:
    def test_value(self):
        pred = Tensor(np.array([1.0, 2.0]))
        assert nn.mse_loss(pred, np.array([0.0, 0.0])).item() == pytest.approx(2.5)

    def test_zero_at_target(self):
        pred = Tensor(np.array([3.0, -1.0]))
        assert nn.mse_loss(pred, np.array([3.0, -1.0])).item() == 0.0

    def test_gradient(self):
        pred = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        nn.mse_loss(pred, np.array([0.0, 0.0])).backward()
        np.testing.assert_allclose(pred.grad, [1.0, 2.0])


class TestCrossEntropy:
    def test_perfect_prediction_near_zero(self):
        logits = Tensor(np.array([[10.0, -10.0], [-10.0, 10.0]]))
        loss = nn.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_uniform_logits(self):
        logits = Tensor(np.zeros((2, 4)))
        loss = nn.cross_entropy(logits, np.array([0, 3]))
        assert loss.item() == pytest.approx(np.log(4.0))

    def test_gradient_direction(self):
        logits = Tensor(np.zeros((1, 3)), requires_grad=True)
        nn.cross_entropy(logits, np.array([1])).backward()
        # The target logit's gradient is negative, others positive.
        assert logits.grad[0, 1] < 0
        assert logits.grad[0, 0] > 0 and logits.grad[0, 2] > 0

    def test_gradient_is_softmax_minus_one_hot(self):
        data = np.array([[0.5, -1.0, 2.0], [1.0, 1.0, 0.0]])
        labels = np.array([2, 0])
        logits = Tensor(data, requires_grad=True)
        nn.cross_entropy(logits, labels).backward()
        softmax = np.exp(data) / np.exp(data).sum(axis=1, keepdims=True)
        expected = (softmax - np.eye(3)[labels]) / len(labels)
        np.testing.assert_allclose(logits.grad, expected, atol=1e-12)


class TestNLL:
    def test_sums_over_batch(self):
        logits = Tensor(np.zeros((3, 2)))
        loss = nn.nll_from_logits(logits, np.array([0, 1, 0]))
        assert loss.item() == pytest.approx(3 * np.log(2.0))

    def test_is_the_batch_size_times_cross_entropy(self):
        logits = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        labels = np.array([0, 2, 1, 2])
        assert nn.nll_from_logits(logits, labels).item() == pytest.approx(
            4 * nn.cross_entropy(logits, labels).item(), rel=1e-12)
