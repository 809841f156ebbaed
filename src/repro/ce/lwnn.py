"""LW-NN: lightweight fully-connected estimator (Dutt et al., VLDB 2019).

Encodes a query as one flat vector of normalized selection ranges plus join
indicators and regresses normalized log cardinality with a small MLP.  Its
selling point — and the behaviour the paper's Table V reproduces — is
near-zero inference latency.
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
class LWNNConfig:
    hidden: int = 48
    epochs: int = 120
    batch_size: int = 64
    lr: float = 5e-3
    seed: int = 0


class LWNN(CEModel):
    name = "LW-NN"
    query_driven = True

    def __init__(self, config: LWNNConfig | None = None):
        self.config = config or LWNNConfig()

    def fit(self, ctx: TrainingContext) -> None:
        rng = rng_from_seed(self.config.seed + ctx.seed)
        self._encoder = ctx.encoder
        queries = ctx.workload.train
        features = self._encoder.encode_flat_batch(queries)
        cards = np.array([q.true_cardinality for q in queries], dtype=np.float64)
        self._normalizer = LogCardNormalizer().fit(cards)
        targets = self._normalizer.transform(cards).reshape(-1, 1)

        self._net = nn.MLP(
            [features.shape[1], self.config.hidden, self.config.hidden // 2, 1],
            rng, output_activation="sigmoid")
        optimizer = nn.Adam(self._net.parameters(), lr=self.config.lr)
        n = len(queries)
        for _ in range(self.config.epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.config.batch_size):
                idx = order[start:start + self.config.batch_size]
                pred = self._net(nn.Tensor(features[idx]))
                loss = nn.mse_loss(pred, targets[idx])
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
        # Cache the weight matrices for a fast numpy-only inference path.
        self._weights = [(layer.weight.data, layer.bias.data)
                         for layer in self._net.layers]

    def estimate(self, query: Query) -> float:
        vec = self._encoder.encode_flat(query)
        for i, (w, b) in enumerate(self._weights):
            vec = vec @ w + b
            if i < len(self._weights) - 1:
                vec = np.maximum(vec, 0.0)
        pred = 1.0 / (1.0 + np.exp(-vec[0]))
        return clip_card(self._normalizer.inverse(np.array([pred]))[0])
