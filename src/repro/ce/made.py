"""MADE: masked autoregressive density estimator over discretized columns.

The deep autoregressive substrate behind NeuroCard and UAE.  Columns are
one-hot encoded and concatenated; two masked hidden layers enforce the
autoregressive property (output block *i* depends only on input blocks
``< i``), so the network factorizes the joint as ∏ᵢ P(xᵢ | x₍<ᵢ₎).
Training minimizes the exact negative log-likelihood; inference exposes the
per-column conditional distributions needed for progressive sampling.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..utils.rng import rng_from_seed


def _build_masks(bins: list[int], hidden: int, rng: np.random.Generator):
    """MADE connectivity masks for [input -> hidden -> hidden -> output]."""
    n_cols = len(bins)
    input_dim = int(sum(bins))
    # Degree of each input unit = 1-based index of its column.
    in_degrees = np.concatenate([
        np.full(b, i + 1, dtype=np.int64) for i, b in enumerate(bins)
    ])
    max_degree = max(1, n_cols - 1)
    hidden_degrees1 = 1 + (np.arange(hidden) % max_degree)
    hidden_degrees2 = 1 + (np.arange(hidden) % max_degree)
    out_degrees = np.concatenate([
        np.full(b, i + 1, dtype=np.int64) for i, b in enumerate(bins)
    ])
    mask1 = (hidden_degrees1[None, :] >= in_degrees[:, None]).astype(np.float64)
    mask2 = (hidden_degrees2[None, :] >= hidden_degrees1[:, None]).astype(np.float64)
    mask3 = (out_degrees[None, :] > hidden_degrees2[:, None]).astype(np.float64)
    return mask1, mask2, mask3


class MADE(nn.Module):
    """Masked autoregressive network over one-hot encoded columns."""

    def __init__(self, bins: list[int], hidden: int = 48,
                 seed: int | np.random.Generator = 0):
        super().__init__()
        rng = rng_from_seed(seed)
        self.bins = list(bins)
        self.offsets = np.concatenate(([0], np.cumsum(self.bins))).astype(np.int64)
        self.input_dim = int(self.offsets[-1])
        mask1, mask2, mask3 = _build_masks(self.bins, hidden, rng)
        self.layer1 = nn.MaskedLinear(self.input_dim, hidden, rng, mask1)
        self.layer2 = nn.MaskedLinear(hidden, hidden, rng, mask2)
        self.layer3 = nn.MaskedLinear(hidden, self.input_dim, rng, mask3)

    # ------------------------------------------------------------------
    def one_hot(self, ids: np.ndarray) -> np.ndarray:
        """One-hot encode integer bin ids of shape [n, n_cols]."""
        n = len(ids)
        out = np.zeros((n, self.input_dim), dtype=np.float64)
        for col, (offset, width) in enumerate(zip(self.offsets[:-1], self.bins)):
            out[np.arange(n), offset + ids[:, col]] = 1.0
        return out

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        h = self.layer1(x).relu()
        h = self.layer2(h).relu()
        return self.layer3(h)

    def nll(self, x: nn.Tensor, ids: np.ndarray) -> nn.Tensor:
        """Mean negative log-likelihood of the batch."""
        logits = self.forward(x)
        total = None
        for col, (offset, width) in enumerate(zip(self.offsets[:-1], self.bins)):
            block = logits[:, offset:offset + width]
            col_nll = nn.nll_from_logits(block, ids[:, col])
            total = col_nll if total is None else total + col_nll
        return total * (1.0 / len(ids))

    # ------------------------------------------------------------------
    def fit(self, ids: np.ndarray, epochs: int = 15, batch_size: int = 256,
            lr: float = 5e-3, seed: int | np.random.Generator = 0) -> list[float]:
        """Train on integer bin ids [n, n_cols]; returns per-epoch mean NLL."""
        rng = rng_from_seed(seed)
        optimizer = nn.Adam(self.parameters(), lr=lr)
        n = len(ids)
        history = []
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_nll = 0.0
            for start in range(0, n, batch_size):
                batch_ids = ids[order[start:start + batch_size]]
                x = nn.Tensor(self.one_hot(batch_ids))
                loss = self.nll(x, batch_ids)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                epoch_nll += loss.item() * len(batch_ids)
            history.append(epoch_nll / n)
        self._cache_weights()
        return history

    # ------------------------------------------------------------------
    # Fast numpy-only inference path
    # ------------------------------------------------------------------
    def _cache_weights(self) -> None:
        self._w1 = self.layer1.weight.data * self.layer1.mask.data
        self._b1 = self.layer1.bias.data
        self._w2 = self.layer2.weight.data * self.layer2.mask.data
        self._b2 = self.layer2.bias.data
        self._w3 = self.layer3.weight.data * self.layer3.mask.data
        self._b3 = self.layer3.bias.data

    def _forward_numpy(self, x: np.ndarray) -> np.ndarray:
        h = x @ self._w1
        h += self._b1
        np.maximum(h, 0.0, out=h)
        h = h @ self._w2
        h += self._b2
        np.maximum(h, 0.0, out=h)
        logits = h @ self._w3
        logits += self._b3
        return logits

    def conditional_probs(self, x_partial: np.ndarray, col: int) -> np.ndarray:
        """P(x_col | x_<col) for a batch of partially-filled one-hot rows.

        Thanks to the autoregressive masks, blocks ≥ ``col`` of the input may
        be zero-filled without changing the result.
        """
        logits = self._forward_numpy(x_partial)
        offset, width = self.offsets[col], self.bins[col]
        block = logits[:, offset:offset + width]
        block = block - block.max(axis=1, keepdims=True)
        np.exp(block, out=block)
        block /= block.sum(axis=1, keepdims=True)
        return block
