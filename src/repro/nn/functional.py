"""Loss functions and small functional helpers."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor

__all__ = ["mse_loss", "cross_entropy", "nll_from_logits"]


def mse_loss(pred: Tensor, target) -> Tensor:
    target = Tensor.ensure(target)
    diff = pred - target
    return (diff * diff).mean()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer ``labels`` under ``logits`` rows."""
    labels = np.asarray(labels, dtype=np.int64)
    log_probs = logits.log_softmax(axis=-1)
    rows = np.arange(len(labels))
    picked = log_probs[rows, labels]
    return -picked.mean()


def nll_from_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Sum negative log-likelihood (used by the autoregressive estimators)."""
    labels = np.asarray(labels, dtype=np.int64)
    log_probs = logits.log_softmax(axis=-1)
    rows = np.arange(len(labels))
    return -log_probs[rows, labels].sum()
