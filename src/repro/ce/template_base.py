"""Per-join-template fitting shared by the data-driven estimators.

Data-driven models in this reproduction (DeepDB, BayesCard, NeuroCard, UAE)
learn one joint distribution per *join template* of the workload, from a
shared uniform sample of the template's join result — the ensemble-per-join
strategy of DeepDB's RSPNs (see DESIGN.md for the substitution note on
NeuroCard's single-model fanout scaling).  Templates not seen during
:meth:`fit` are fitted lazily on demand (e.g. sub-plans enumerated by the
query optimizer), which mirrors DeepDB's on-demand ensemble extension.
"""

from __future__ import annotations

import numpy as np

from ..db.schema import Dataset
from ..workload.query import Query
from .base import CEModel, TrainingContext, clip_card


def sub_templates(dataset: Dataset,
                  queries: list[Query]) -> list[tuple[str, ...]]:
    """Every join template the optimizer may ask about while planning
    ``queries``: the connected table subsets inside some query's template,
    sorted.  Pass them to :meth:`TemplateModel.prepare_templates` to fit
    them up front instead of on the first sub-plan estimate."""
    templates = set()
    for query in queries:
        tables = set(query.template)
        for candidate in dataset.connected_subsets():
            if set(candidate) <= tables:
                templates.add(candidate)
    return sorted(templates)


class TemplateModel(CEModel):
    """Base class managing one sub-model per join template."""

    data_driven = True

    def __init__(self):
        self._models: dict[tuple[str, ...], object] = {}
        self._sizes: dict[tuple[str, ...], int] = {}
        self._ctx: TrainingContext | None = None

    # ------------------------------------------------------------------
    # Subclass contract
    # ------------------------------------------------------------------
    def _fit_template(self, template: tuple[str, ...],
                      columns: dict[str, np.ndarray], join_size: int) -> object:
        raise NotImplementedError  # pragma: no cover - abstract

    def _template_selectivity(self, model: object, template: tuple[str, ...],
                              query: Query) -> float:
        raise NotImplementedError  # pragma: no cover - abstract

    # ------------------------------------------------------------------
    #: Smallest per-template sample regardless of how thin the budget gets.
    MIN_TEMPLATE_SAMPLE = 120

    def fit(self, ctx: TrainingContext) -> None:
        self._ctx = ctx
        self._models.clear()
        self._sizes.clear()
        templates = ctx.workload.templates
        # The total sample budget is *shared* across join templates: a model
        # of fixed capacity has to spread over the joint spaces of every
        # template it serves.  This is what makes data-driven models lose
        # ground on many-table datasets (the paper's Fig. 1(a) regime).
        self._per_template_budget = max(
            self.MIN_TEMPLATE_SAMPLE, ctx.sample_size // max(1, len(templates)))
        for template in templates:
            self.prepare_template(tuple(sorted(template)))

    def _require_fitted(self) -> None:
        if self._ctx is None:
            raise RuntimeError(f"{self.name} is not fitted; call fit() first")

    def prepare_template(self, template: tuple[str, ...]) -> None:
        self._require_fitted()
        template = tuple(sorted(template))
        if template in self._models:
            return
        budget = getattr(self, "_per_template_budget", self._ctx.sample_size)
        columns, size = self._ctx.samples.sample(
            template, budget, seed=self._ctx.seed)
        self._sizes[template] = size
        if not columns or size == 0:
            self._models[template] = None
            return
        self._models[template] = self._fit_template(template, columns, size)

    def prepare_templates(self, templates: list[tuple[str, ...]]) -> None:
        self._require_fitted()
        for template in templates:
            self.prepare_template(template)

    # ------------------------------------------------------------------
    def _ranges(self, query: Query) -> dict[str, tuple[int, int]]:
        """Conjunctive ranges keyed by qualified column name.

        Multiple predicates on the same column are intersected.
        """
        ranges: dict[str, tuple[int, int]] = {}
        for pred in query.predicates:
            key = f"{pred.table}.{pred.column}"
            if key in ranges:
                lo, hi = ranges[key]
                ranges[key] = (max(lo, pred.lo), min(hi, pred.hi))
            else:
                ranges[key] = (pred.lo, pred.hi)
        return ranges

    def estimate(self, query: Query) -> float:
        template = query.template
        if template not in self._models:
            self.prepare_template(template)
        model = self._models.get(template)
        size = self._sizes.get(template, 0)
        if model is None or size == 0:
            return clip_card(float(size))
        selectivity = self._template_selectivity(model, template, query)
        return clip_card(selectivity * size, upper=None)
