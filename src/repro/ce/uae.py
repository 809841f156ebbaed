"""UAE: unified autoregressive estimator learning from data AND queries.

Wu & Cong (SIGMOD 2021) extend the deep autoregressive model with
differentiable progressive sampling so training queries also supervise the
density model.  Our CPU reproduction keeps the data-driven MADE core of
NeuroCard and adds the query supervision as a per-template calibration
layer fitted on the training workload: a least-squares affine correction in
log-cardinality space (shrunk towards the identity when a template has few
training queries).  This preserves UAE's qualitative profile in the paper —
accuracy at or above NeuroCard, with the same heavy inference latency.

The MADE core is NeuroCard's own fitting, so it goes through the fitted-MADE
memo on :class:`~repro.ce.base.TrainingContext`: on a context where a
NeuroCard with the same MADE configuration has fitted (as in the testbed,
which builds both with one config and seed), UAE takes NeuroCard's networks
and its ``fit`` is the calibration alone.  On a fresh context it trains its
own, bit-identical to the ones NeuroCard would train.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..workload.query import Query
from .base import TrainingContext, clip_card
from .neurocard import NeuroCard, NeuroCardConfig


@dataclass
class UAEConfig(NeuroCardConfig):
    min_queries_for_calibration: int = 6
    shrinkage: float = 0.7


class UAE(NeuroCard):
    name = "UAE"

    def __init__(self, config: UAEConfig | None = None):
        super().__init__(config or UAEConfig())
        self._calibration: dict[tuple[str, ...], tuple[float, float]] = {}

    def fit(self, ctx: TrainingContext) -> None:
        super().fit(ctx)
        self._calibration.clear()
        config: UAEConfig = self.config  # type: ignore[assignment]
        by_template: dict[tuple[str, ...], list[Query]] = {}
        for query in ctx.workload.train:
            by_template.setdefault(query.template, []).append(query)
        for template, queries in by_template.items():
            if len(queries) < config.min_queries_for_calibration:
                continue
            raw = np.array([super(UAE, self).estimate(q) for q in queries])
            true = np.array([q.true_cardinality for q in queries], dtype=np.float64)
            x = np.log(raw + 1.0)
            y = np.log(true + 1.0)
            denominator = float(((x - x.mean()) ** 2).sum())
            if denominator < 1e-9:
                continue
            slope = float(((x - x.mean()) * (y - y.mean())).sum()) / denominator
            intercept = float(y.mean() - slope * x.mean())
            # Shrink toward the identity (a=1, b=0): the data-driven model is
            # already consistent, queries only correct its bias.
            lam = config.shrinkage
            slope = lam * slope + (1.0 - lam) * 1.0
            intercept = lam * intercept
            slope = float(np.clip(slope, 0.25, 4.0))
            self._calibration[template] = (slope, intercept)

    def estimate(self, query: Query) -> float:
        raw = super().estimate(query)
        calibration = self._calibration.get(query.template)
        if calibration is None:
            return raw
        slope, intercept = calibration
        log_est = slope * np.log(raw + 1.0) + intercept
        return clip_card(float(np.exp(np.clip(log_est, 0.0, 60.0)) - 1.0))
