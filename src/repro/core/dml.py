"""DML-based graph-encoder training (Algorithm 1).

Trains the GIN encoder so that datasets with similar CE-model performance
embed close together.  Each batch (i) computes pairwise label similarities
(Eq. 6), (ii) partitions pairs by the threshold τ (Eq. 7), (iii) encodes
the feature graphs, and (iv) descends the weighted contrastive loss
(Eq. 9).

One encoder must serve every metric-weight combination (Sec. IV-B2).  Two
protocols are provided: the default reproduces the paper — cycling one
weight combination per batch — while ``similarity="profile"`` derives
similarities from the full score profile (score vectors of all weights,
concatenated), giving every batch the same metric target (see the
DML-design ablation bench for the comparison).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..testbed.scores import ScoreLabel, WEIGHT_GRID
from ..utils.rng import rng_from_seed
from .encoder import GINEncoder
from .graph import FeatureGraph, GraphTensorBatcher
from .losses import basic_contrastive_loss, weighted_contrastive_loss

#: Memoized flat indices of the off-diagonal entries of an m×m matrix.
_OFF_DIAGONAL_CACHE: dict[int, np.ndarray] = {}


def _off_diagonal_indices(m: int) -> np.ndarray:
    indices = _OFF_DIAGONAL_CACHE.get(m)
    if indices is None:
        indices = np.flatnonzero(~np.eye(m, dtype=bool))
        _OFF_DIAGONAL_CACHE[m] = indices
    return indices


@dataclass
class DMLConfig:
    epochs: int = 80
    batch_size: int = 32
    lr: float = 2e-3
    tau: float = 0.95
    #: "quantile" (default) re-derives tau per batch as the ``tau_quantile``-th
    #: quantile of the batch's pairwise label similarities, keeping the
    #: positive/negative split (Eq. 7) informative at every weight
    #: combination; score-vector cosine similarities concentrate near 1, so
    #: a fixed tau can label nearly every pair positive and collapse the
    #: embedding.  "fixed" uses ``tau`` verbatim as in the paper's notation.
    tau_mode: str = "quantile"
    tau_quantile: float = 0.7
    gamma: float = 2.0
    #: Accuracy-weight combinations the encoder must serve (Sec. IV-B2).
    weights: tuple[float, ...] = WEIGHT_GRID
    #: How batch label similarities are derived from those combinations:
    #: "weight_cycle" (default, the paper's protocol) cycles one weight
    #: combination per batch; "profile" takes the cosine over the
    #: *concatenated* score vectors of every weight — one consistent metric
    #: target (compared in the DML-design ablation bench).
    similarity: str = "weight_cycle"
    #: "weighted" (Eq. 9) or "basic" (Eq. 10, the Fig. 7 ablation).
    loss: str = "weighted"
    grad_clip: float = 5.0
    seed: int = 0


class DMLTrainer:
    """Runs Algorithm 1 over a labeled corpus of feature graphs."""

    def __init__(self, encoder: GINEncoder, config: DMLConfig | None = None) -> None:
        self.encoder = encoder
        self.config = config or DMLConfig()
        if self.config.loss not in ("weighted", "basic"):
            raise ValueError(f"unknown loss {self.config.loss!r}")
        if self.config.tau_mode not in ("fixed", "quantile"):
            raise ValueError(f"unknown tau_mode {self.config.tau_mode!r}")
        if self.config.similarity not in ("profile", "weight_cycle"):
            raise ValueError(f"unknown similarity {self.config.similarity!r}")
        self._optimizer = nn.Adam(encoder.parameters(), lr=self.config.lr)

    def _profile_vectors(self, labels: list[ScoreLabel]) -> np.ndarray:
        """Concatenated score vectors over the whole weight grid: [n, w·m]."""
        return np.stack([
            np.concatenate([label.score_vector(w) for w in self.config.weights])
            for label in labels
        ])

    def _effective_tau(self, sims: np.ndarray) -> float:
        """The threshold of Eq. 7 for one batch (fixed or per-batch quantile)."""
        if self.config.tau_mode == "fixed":
            return self.config.tau
        off_diagonal = sims.ravel()[_off_diagonal_indices(len(sims))]
        # np.quantile's "linear" method via two-pivot argpartition — O(n)
        # instead of np.quantile's much slower general machinery.
        position = self.config.tau_quantile * (len(off_diagonal) - 1)
        lo = int(position)
        hi = min(lo + 1, len(off_diagonal) - 1)
        part = np.partition(off_diagonal, (lo, hi))
        return float(part[lo] + (part[hi] - part[lo]) * (position - lo))

    def _loss_fn(self, embeddings: nn.Tensor, sims: np.ndarray) -> nn.Tensor:
        tau = self._effective_tau(sims)
        if self.config.loss == "weighted":
            return weighted_contrastive_loss(
                embeddings, sims, tau=tau, gamma=self.config.gamma)
        return basic_contrastive_loss(
            embeddings, sims, tau=tau, gamma=self.config.gamma)

    def train(self, graphs: list[FeatureGraph], labels: list[ScoreLabel],
              epochs: int | None = None) -> list[float]:
        """Train the encoder; returns mean loss per epoch."""
        if len(graphs) != len(labels):
            raise ValueError("graphs and labels must align")
        if len(graphs) < 2:
            raise ValueError("DML needs at least two labeled graphs")
        config = self.config
        rng = rng_from_seed(config.seed)
        n = len(graphs)
        history: list[float] = []
        weight_cycle = list(config.weights)
        profiles = (self._profile_vectors(labels)
                    if config.similarity == "profile" else None)
        # Memoize the per-weight *normalized* score matrices for the weight
        # cycle: each weight's [n, m] unit-row matrix is built once per
        # train() (on first use), so per-batch label similarities reduce to a
        # slice + one small GEMM (row-wise normalization commutes with
        # row slicing, keeping Eq. 6 bit-identical).
        normed_table: dict[float, np.ndarray] = {}

        def weight_normed(w: float) -> np.ndarray:
            matrix = normed_table.get(w)
            if matrix is None:
                matrix = np.stack([label.score_vector(w) for label in labels])
                norms = np.sqrt((matrix * matrix).sum(axis=1, keepdims=True))
                matrix /= np.maximum(norms, 1e-12)
                normed_table[w] = matrix
            return matrix

        if profiles is not None:
            norms = np.sqrt((profiles * profiles).sum(axis=1, keepdims=True))
            profiles = profiles / np.maximum(norms, 1e-12)
        # The whole corpus is padded and stacked once per train(), on the
        # encoder's precision tier (a float32 encoder trains against
        # float32 corpus tensors end-to-end); batches slice it.
        batcher = GraphTensorBatcher(graphs, dtype=self.encoder.dtype)
        encoder = self.encoder
        optimizer = self._optimizer
        loss_fn = self._loss_fn
        batch_size = config.batch_size
        grad_clip = config.grad_clip
        step = 0
        for _ in range(epochs if epochs is not None else config.epochs):
            order = rng.permutation(n)
            # One gather for the whole epoch; batches below are views.
            epoch_v, epoch_a, epoch_m = batcher.slice(order)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, n, batch_size):
                stop = start + batch_size
                idx = order[start:stop]
                if len(idx) < 2:
                    continue
                if profiles is not None:
                    batch_normed = profiles[idx]
                else:
                    accuracy_weight = weight_cycle[step % len(weight_cycle)]
                    batch_normed = weight_normed(accuracy_weight)[idx]
                step += 1
                sims = np.clip(batch_normed @ batch_normed.T, -1.0, 1.0)
                embeddings = encoder.forward_adjacency(
                    epoch_v[start:stop], epoch_a[start:stop],
                    epoch_m[start:stop])
                loss = loss_fn(embeddings, sims)
                optimizer.zero_grad()
                loss.backward()
                # Clipping is folded into the optimizer's flat-gradient pass.
                optimizer.step(grad_clip=grad_clip)
                epoch_loss += loss.item()
                batches += 1
            history.append(epoch_loss / max(1, batches))
        return history
