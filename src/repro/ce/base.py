"""Common interface for cardinality estimators.

Every estimator in the zoo — query-driven (MSCN, LW-NN, LW-XGB),
data-driven (DeepDB, BayesCard, NeuroCard), hybrid (UAE) and the baselines
(Postgres, Ensemble) — implements :class:`CEModel`.  The testbed constructs
one :class:`TrainingContext` per dataset (shared query encoder + shared join
samples) and fits every candidate model from it, as in the paper's unified
CE testbed (Sec. IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..db.sampling import JoinSampleCache
from ..db.schema import Dataset
from ..workload.encoding import QueryEncoder
from ..workload.generator import Workload
from ..workload.query import Query

MIN_CARD = 1.0


@dataclass
class TrainingContext:
    """Everything a CE model may consume during fitting.

    Query-driven models read ``workload.train`` (queries + true cards);
    data-driven models read join samples from ``samples``; all models share
    the ``encoder`` vocabulary.

    ``fitted_mades`` memoizes the MADE networks NeuroCard fits, keyed on the
    template, the sample and every MADE training setting.  UAE inherits
    NeuroCard's fitting, so on one context it reuses NeuroCard's networks
    (or NeuroCard reuses UAE's, whichever fits first) instead of retraining
    bit-identical ones.  A fresh context starts with an empty memo.
    """

    dataset: Dataset
    workload: Workload
    encoder: QueryEncoder
    samples: JoinSampleCache
    seed: int = 0
    sample_size: int = 2000
    fitted_mades: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def build(cls, dataset: Dataset, workload: Workload, seed: int = 0,
              sample_size: int = 2000) -> "TrainingContext":
        return cls(
            dataset=dataset,
            workload=workload,
            encoder=QueryEncoder(dataset),
            samples=JoinSampleCache(dataset, seed=seed),
            seed=seed,
            sample_size=sample_size,
        )


class CEModel:
    """Abstract cardinality estimator."""

    #: Registry name, e.g. ``"MSCN"``.
    name: str = "abstract"
    #: True if the model learns from (query, cardinality) pairs.
    query_driven: bool = False
    #: True if the model learns the data's joint distribution.
    data_driven: bool = False

    def fit(self, ctx: TrainingContext) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def estimate(self, query: Query) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def estimate_batch(self, queries: list[Query]) -> np.ndarray:
        return np.array([self.estimate(q) for q in queries], dtype=np.float64)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def clip_card(value: float, upper: float | None = None) -> float:
    """Clamp an estimate to a sane positive range.

    NaN (no information) floors to one row; +inf saturates at ``upper`` (or
    a large finite cap), since an overflowing estimate still means "huge".
    """
    value = float(value)
    if np.isnan(value):
        value = MIN_CARD
    value = max(MIN_CARD, value)
    if upper is not None:
        value = min(value, float(upper))
    elif not np.isfinite(value):
        value = 1e30
    return value
