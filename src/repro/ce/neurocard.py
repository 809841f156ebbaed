"""NeuroCard: deep autoregressive CE with progressive sampling (Yang et al.).

One MADE model per join template over discretized columns; conjunctive range
queries are answered by *progressive sampling*: columns are processed in
autoregressive order, each constrained column contributes the conditional
probability mass inside its range, and the next value is sampled from the
restricted conditional.  The selectivity is the mean product of the masses
across sample paths — an unbiased estimator of P(∧ ranges).

Sampling runs one network forward per column, up to the last constrained
column, and stops early once every sample path is dead (zero mass).
Column 0's conditional does not depend on the sampled values, so it is
computed once per MADE and memoized.  The columns a query skips still draw
their uniforms, so every estimate consumes the same random stream as the
full column walk.  At the median over the offline bench corpora, NeuroCard
and UAE are the two slowest candidates to query.

Fitted MADEs are memoized on the :class:`~repro.ce.base.TrainingContext`,
keyed on everything that fixes one, so a UAE fitted on the same context
with the same MADE configuration reuses NeuroCard's networks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.rng import rng_from_seed
from ..workload.query import Query
from .base import TrainingContext
from .discretize import Discretizer
from .made import MADE
from .template_base import TemplateModel


@dataclass
class NeuroCardConfig:
    max_bins: int = 12
    hidden: int = 48
    epochs: int = 12
    batch_size: int = 256
    lr: float = 5e-3
    num_samples: int = 64
    seed: int = 0


class _FittedMade:
    def __init__(self, made: MADE, discretizers: list[Discretizer],
                 column_names: list[str]):
        self.made = made
        self.discretizers = discretizers
        self.column_names = column_names
        self._first_probs: dict[int, np.ndarray] = {}

    def first_conditional(self, samples: int) -> np.ndarray:
        """P(column 0) for ``samples`` all-zero rows, memoized read-only.

        Exactly ``made.conditional_probs(zeros, 0)``: the same GEMM shapes,
        so every row keeps the bits the per-query forward produced.
        """
        probs = self._first_probs.get(samples)
        if probs is None:
            probs = self.made.conditional_probs(
                np.zeros((samples, self.made.input_dim)), 0)
            probs.setflags(write=False)
            self._first_probs[samples] = probs
        return probs


class NeuroCard(TemplateModel):
    name = "NeuroCard"

    def __init__(self, config: NeuroCardConfig | None = None):
        super().__init__()
        self.config = config or NeuroCardConfig()
        self._rng = rng_from_seed(self.config.seed)

    def fit(self, ctx: TrainingContext) -> None:
        # A refit must not depend on the estimates made before it.
        self._rng = rng_from_seed(self.config.seed)
        super().fit(ctx)

    def _fit_template(self, template, columns, join_size):
        config = self.config
        # The context fixes the sample given its template and row count.
        rows = len(next(iter(columns.values())))
        key = (template, rows, config.max_bins, config.hidden, config.epochs,
               config.batch_size, config.lr, config.seed)
        assert self._ctx is not None  # prepare_template fits within a context
        memo = self._ctx.fitted_mades
        if key not in memo:
            names = list(columns)
            discretizers = [Discretizer(columns[c], config.max_bins)
                            for c in names]
            ids = np.stack([d.transform(columns[c])
                            for d, c in zip(discretizers, names)], axis=1)
            made = MADE([d.n_bins for d in discretizers], hidden=config.hidden,
                        seed=config.seed)
            made.fit(ids, epochs=config.epochs, batch_size=config.batch_size,
                     lr=config.lr, seed=config.seed + 1)
            memo[key] = _FittedMade(made, discretizers, names)
        return memo[key]

    # ------------------------------------------------------------------
    def _progressive_sample(self, fitted: _FittedMade,
                            allowed: list[np.ndarray | None]) -> float:
        """Unbiased estimate of P(∧ allowed) via progressive sampling."""
        made = fitted.made
        samples = self.config.num_samples
        last = max((col for col, mass in enumerate(allowed) if mass is not None),
                   default=-1)
        x = np.zeros((samples, made.input_dim), dtype=np.float64)
        weights = np.ones(samples, dtype=np.float64)
        rows = np.arange(samples)
        col = 0
        for col, mass in enumerate(allowed[:last + 1]):
            probs = (fitted.first_conditional(samples) if col == 0
                     else made.conditional_probs(x, col))
            if mass is None:
                safe = probs
            else:
                restricted = probs * mass[None, :]
                col_mass = restricted.sum(axis=1)
                weights *= col_mass
                if col == last or not weights.any():
                    break
                # Dead paths: keep them (weight 0) but sample uniformly so the
                # one-hot stays valid.
                safe = np.full_like(probs, 1.0 / probs.shape[1])
                np.divide(restricted, np.maximum(col_mass[:, None], 1e-30),
                          out=safe, where=col_mass[:, None] > 0)
            # Vectorized categorical sampling per row.
            cdf = np.cumsum(safe, axis=1)
            draws = self._rng.random(samples)[:, None]
            chosen = (draws > cdf).sum(axis=1)
            chosen = np.minimum(chosen, probs.shape[1] - 1)
            x[rows, made.offsets[col] + chosen] = 1.0
        # The columns left no longer move the weights; they still draw their
        # uniforms (one block equals the per-column draws) to keep the stream.
        self._rng.random((len(allowed) - col) * samples)
        return float(weights.mean())

    def _allowed_masses(self, fitted: _FittedMade,
                        query: Query) -> list[np.ndarray | None]:
        ranges = self._ranges(query)
        allowed: list[np.ndarray | None] = []
        for name, discretizer in zip(fitted.column_names, fitted.discretizers):
            bounds = ranges.get(name)
            if bounds is None:
                allowed.append(None)
            else:
                allowed.append(discretizer.range_mass(bounds[0], bounds[1]))
        return allowed

    def _template_selectivity(self, model: _FittedMade, template,
                              query: Query) -> float:
        allowed = self._allowed_masses(model, query)
        if all(a is None for a in allowed):
            return 1.0
        return self._progressive_sample(model, allowed)
