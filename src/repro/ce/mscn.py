"""MSCN: multi-set convolutional network (Kipf et al., CIDR 2019).

A query is encoded as three sets — tables, joins, predicates.  Each set
element passes through a per-set MLP, elements are masked-average-pooled,
the pooled vectors are concatenated and a final MLP regresses the normalized
log cardinality.  This is the paper's query-driven baseline (1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..utils.rng import rng_from_seed
from ..workload.query import Query
from .base import CEModel, TrainingContext, clip_card
from .targets import LogCardNormalizer


@dataclass
class MSCNConfig:
    hidden: int = 32
    epochs: int = 80
    batch_size: int = 64
    lr: float = 5e-3
    seed: int = 0


class _SetBranch(nn.Module):
    def __init__(self, in_dim: int, hidden: int, rng):
        super().__init__()
        self.mlp = nn.MLP([in_dim, hidden, hidden], rng)

    def forward(self, feats: nn.Tensor, mask: np.ndarray) -> nn.Tensor:
        # feats: [B, S, D], mask: [B, S]
        hidden = self.mlp(feats)
        mask_t = nn.Tensor(mask[:, :, None])
        pooled = (hidden * mask_t).sum(axis=1)
        denom = nn.Tensor(np.maximum(mask.sum(axis=1, keepdims=True), 1.0))
        return pooled / denom


class _MSCNNet(nn.Module):
    def __init__(self, table_dim: int, join_dim: int, pred_dim: int,
                 hidden: int, rng):
        super().__init__()
        self.tables = _SetBranch(table_dim, hidden, rng)
        self.joins = _SetBranch(join_dim, hidden, rng)
        self.preds = _SetBranch(pred_dim, hidden, rng)
        self.head = nn.MLP([3 * hidden, hidden, 1], rng, output_activation="sigmoid")

    def forward(self, tables, joins, preds) -> nn.Tensor:
        pooled = nn.concatenate([
            self.tables(nn.Tensor(tables[0]), tables[1]),
            self.joins(nn.Tensor(joins[0]), joins[1]),
            self.preds(nn.Tensor(preds[0]), preds[1]),
        ], axis=1)
        return self.head(pooled)


class MSCN(CEModel):
    name = "MSCN"
    query_driven = True

    def __init__(self, config: MSCNConfig | None = None):
        self.config = config or MSCNConfig()

    def fit(self, ctx: TrainingContext) -> None:
        rng = rng_from_seed(self.config.seed + ctx.seed)
        self._encoder = ctx.encoder
        queries = ctx.workload.train
        cards = np.array([q.true_cardinality for q in queries], dtype=np.float64)
        self._normalizer = LogCardNormalizer().fit(cards)
        targets = self._normalizer.transform(cards)

        tables, joins, preds = self._encoder.encode_sets_batch(queries)
        self._max_tables = tables[0].shape[1]
        self._max_joins = joins[0].shape[1]
        self._max_preds = preds[0].shape[1]

        self._net = _MSCNNet(tables[0].shape[2], joins[0].shape[2],
                             preds[0].shape[2], self.config.hidden, rng)
        optimizer = nn.Adam(self._net.parameters(), lr=self.config.lr)
        n = len(queries)
        target_t = targets.reshape(-1, 1)
        for _ in range(self.config.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.config.batch_size):
                idx = order[start:start + self.config.batch_size]
                batch = (
                    (tables[0][idx], tables[1][idx]),
                    (joins[0][idx], joins[1][idx]),
                    (preds[0][idx], preds[1][idx]),
                )
                pred = self._net(*batch)
                loss = nn.mse_loss(pred, target_t[idx])
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()

    def estimate(self, query: Query) -> float:
        sets = self._encoder.encode_sets(query, self._max_tables,
                                         self._max_joins, self._max_preds)
        batch = tuple((feats[None, :, :], mask[None, :]) for feats, mask in sets)
        with nn.no_grad():
            pred = self._net(*batch).numpy()[0, 0]
        return clip_card(self._normalizer.inverse(np.array([pred]))[0])
