"""The default PostgreSQL cardinality estimator (baseline 9 of Sec. VII-A).

Implements the textbook System-R / PostgreSQL recipe: per-column histograms
with the attribute-value-independence (AVI) assumption for conjunctions, and
``1 / max(ndv(a), ndv(b))`` join selectivity for equi-joins (which for our
PK–FK joins reduces to ``1 / |parent|``).
"""

from __future__ import annotations

from ..workload.query import Query
from .base import CEModel, TrainingContext, clip_card
from .histograms import ValueHistogram


class PostgresEstimator(CEModel):
    name = "Postgres"

    def fit(self, ctx: TrainingContext) -> None:
        self._dataset = ctx.dataset
        self._histograms: dict[tuple[str, str], ValueHistogram] = {}
        self._rows: dict[str, int] = {}
        self._ndv: dict[tuple[str, str], int] = {}
        for table_name, table in ctx.dataset.tables.items():
            self._rows[table_name] = table.num_rows
            for column in table.data_columns():
                hist = ValueHistogram(table[column])
                self._histograms[(table_name, column)] = hist
            for column in table.fk_columns():
                self._ndv[(table_name, column)] = table.domain_size(column)

    def _table_selectivity(self, query: Query, table: str) -> float:
        sel = 1.0
        for pred in query.predicates:
            if pred.table != table:
                continue
            hist = self._histograms.get((table, pred.column))
            if hist is None:
                continue
            sel *= hist.range_fraction(pred.lo, pred.hi)
        return sel

    def estimate(self, query: Query) -> float:
        card = 1.0
        for table in query.tables:
            card *= self._rows[table] * self._table_selectivity(query, table)
        table_set = set(query.tables)
        for fk in self._dataset.foreign_keys:
            if fk.child in table_set and fk.parent in table_set:
                # Equi-join selectivity 1 / max(ndv(fk), ndv(pk)).
                ndv_pk = self._rows[fk.parent]
                ndv_fk = self._ndv.get((fk.child, fk.fk_column), ndv_pk)
                card *= 1.0 / max(ndv_pk, ndv_fk, 1)
        return clip_card(card)
