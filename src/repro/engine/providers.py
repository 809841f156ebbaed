"""The estimator-provider layer between CE models and the optimizer.

PostBOUND-style closed loop: the optimizer talks to exactly one
interface — it asks a :class:`CardinalityProvider` for the cardinality of
every connected sub-plan.  The provider layer owns three concerns:

* **Sub-plan memo** — estimates are memoized per restricted sub-query
  (``Query.restrict`` output: join template + surviving predicates), so a
  workload that probes the same sub-plan twice pays one model inference
  and the hit is *observable* (``stats.memo_hits``) instead of silently
  folded into the optimizer's per-plan cache.
* **Fallback chain** — a provider may carry a ``fallback`` provider; a
  source that raises or returns a non-finite/non-positive estimate hands
  the sub-query down the chain (``stats.fallbacks`` counts every
  delegation) instead of crashing the planner mid-workload.
* **Inference-time accounting** — every source call is timed
  (``stats.elapsed_s``); whether that time counts as *model inference
  latency* is a single class attribute, ``counts_inference_time``.
  TrueCard is the one oracle whose clock never counts — the rule Table V
  applies — and it is stated here exactly once.

Concrete providers: :class:`TrueCardProvider` (exact counts),
:class:`ModelProvider` (any fitted :class:`~repro.ce.base.CEModel`, the
PostgreSQL-style histogram baseline included), :class:`AdvisorProvider`
(AutoCE picks the model for the dataset, then delegates every estimate to
the pick) and :class:`CallableProvider` (a bare
``Callable[[Query], float]``, for tests and quick experiments).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..ce.base import CEModel
from ..db.counting import count_join
from ..db.schema import Dataset
from ..workload.query import Query

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.advisor import AutoCE
    from ..core.graph import FeatureGraph

def _invalid(value: float) -> bool:
    """NaN, ±inf and negative counts are "no answer" (fallback food);
    zero is a legitimate estimate — the optimizer floors it at one row."""
    return math.isnan(value) or math.isinf(value) or value < 0.0


@dataclass
class ProviderStats:
    """Observable per-provider counters (reset with :meth:`reset`)."""

    #: ``estimate()`` invocations seen by this provider.
    calls: int = 0
    #: Calls served from the sub-plan memo (no source invocation).
    memo_hits: int = 0
    #: Calls the source failed and the fallback provider answered.
    fallbacks: int = 0
    #: Wall-clock spent inside this provider's *source* estimator.
    elapsed_s: float = 0.0

    def reset(self) -> None:
        self.calls = 0
        self.memo_hits = 0
        self.fallbacks = 0
        self.elapsed_s = 0.0


class CardinalityProvider:
    """Base class of the provider protocol: memo + fallback + timing.

    Subclasses implement :meth:`_estimate` (the source).  ``estimate`` is
    the optimizer-facing entry point and must never be overridden — it is
    where the memo, the fallback chain and the timing live, and keeping
    them in one place is the point of the layer.
    """

    #: Display name (the Table V row label).
    name: str = "abstract"
    #: Whether ``stats.elapsed_s`` counts as model inference latency.
    #: False only for oracles (TrueCard): their clock measures the
    #: counting substrate, not a deployable estimator.
    counts_inference_time: bool = True

    def __init__(self, fallback: "CardinalityProvider | None" = None) -> None:
        self.fallback = fallback
        self.stats = ProviderStats()
        self._memo: dict[Query, float] = {}

    # ------------------------------------------------------------------
    def estimate(self, query: Query) -> float:
        """Cardinality of ``query`` via memo → source → fallback chain."""
        self.stats.calls += 1
        hit = self._memo.get(query)
        if hit is not None:
            self.stats.memo_hits += 1
            return hit
        value = self._timed_source(query)
        if value is None:
            if self.fallback is None:
                raise ValueError(
                    f"provider {self.name!r} produced no usable estimate for "
                    f"{query.sql()} and has no fallback")
            self.stats.fallbacks += 1
            value = self.fallback.estimate(query)
        self._memo[query] = value
        return value

    def _timed_source(self, query: Query) -> float | None:
        """One timed source call; ``None`` signals "ask the fallback"."""
        start = time.perf_counter()
        try:
            value = float(self._estimate(query))
        except Exception:
            if self.fallback is None:
                raise
            return None
        finally:
            self.stats.elapsed_s += time.perf_counter() - start
        if _invalid(value):
            return None
        return value

    def _estimate(self, query: Query) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------------
    @property
    def inference_time(self) -> float:
        """Model inference latency this provider accumulated — the one
        TrueCard rule: an oracle's clock reads as zero."""
        own = self.stats.elapsed_s if self.counts_inference_time else 0.0
        if self.fallback is not None:
            own += self.fallback.inference_time
        return own

    def reset_stats(self) -> None:
        """Zero the counters (and the chain's), keeping the memo."""
        self.stats.reset()
        if self.fallback is not None:
            self.fallback.reset_stats()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class TrueCardProvider(CardinalityProvider):
    """Oracle provider: exact counts via the counting substrate.

    The paper's "TrueCard" row — the upper bound on what better
    cardinalities can buy.  ``counts_inference_time`` is False: this is
    the single place the zero-inference rule lives.
    """

    name = "TrueCard"
    counts_inference_time = False

    def __init__(self, dataset: Dataset,
                 fallback: CardinalityProvider | None = None) -> None:
        super().__init__(fallback)
        self.dataset = dataset

    def _estimate(self, query: Query) -> float:
        return float(count_join(self.dataset, query.tables,
                                query.predicate_tuples()))


class ModelProvider(CardinalityProvider):
    """Any fitted :class:`CEModel` behind the provider protocol."""

    def __init__(self, model: CEModel,
                 fallback: CardinalityProvider | None = None) -> None:
        super().__init__(fallback)
        self.model = model
        self.name = model.name

    def _estimate(self, query: Query) -> float:
        return self.model.estimate(query)


class CallableProvider(CardinalityProvider):
    """Adapter for bare ``Callable[[Query], float]`` estimators (tests,
    property harnesses, quick experiments)."""

    def __init__(self, fn: Callable[[Query], float], name: str = "callable",
                 fallback: CardinalityProvider | None = None) -> None:
        super().__init__(fallback)
        self.fn = fn
        self.name = name

    def _estimate(self, query: Query) -> float:
        return self.fn(query)


class AdvisorProvider(CardinalityProvider):
    """AutoCE in the loop: recommend a model for the dataset, delegate.

    The advisor runs **once per dataset** (on first use or eagerly via
    :meth:`pick`), picks from ``models`` under ``accuracy_weight`` and
    every subsequent estimate delegates to the picked model.
    """

    def __init__(self, advisor: "AutoCE",
                 dataset: "Dataset | FeatureGraph",
                 models: dict[str, CEModel],
                 accuracy_weight: float = 1.0,
                 fallback: CardinalityProvider | None = None) -> None:
        super().__init__(fallback)
        self.advisor = advisor
        self.dataset = dataset
        self.models = dict(models)
        self.accuracy_weight = accuracy_weight
        self.name = f"AutoCE(w_a={accuracy_weight:g})"
        self.picked: str | None = None

    def pick(self) -> str:
        """Run the recommendation once; return the picked model name."""
        if self.picked is None:
            recommendation = self.advisor.recommend(self.dataset,
                                                    self.accuracy_weight)
            if recommendation.model not in self.models:
                raise KeyError(
                    f"advisor picked {recommendation.model!r} but only "
                    f"{sorted(self.models)} are fitted for this dataset")
            self.picked = recommendation.model
        return self.picked

    def _estimate(self, query: Query) -> float:
        return self.models[self.pick()].estimate(query)

