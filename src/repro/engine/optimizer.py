"""Selinger-style join-order optimization with injected cardinalities.

Enumerates left-deep plans over the connected subsets of a query's join
graph.  Every sub-plan's cardinality is obtained from the
:class:`~repro.engine.providers.CardinalityProvider` under test
(``provider.estimate(sub_query)``), exactly mirroring how the paper
injects estimated cardinalities of all sub-plan queries into PostgreSQL.
Plans are priced by :class:`~repro.engine.cost.CostModel`, the rule
:func:`~repro.engine.e2e.recost_plan` re-prices them with.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..db.schema import Dataset
from ..workload.query import Query
from .cost import CostModel
from .plans import JoinNode, PlanNode, ScanNode
from .providers import CardinalityProvider


@dataclass
class PlannedQuery:
    plan: PlanNode
    cost: float
    #: Number of distinct sub-plan estimates the optimizer requested (the
    #: provider may have served some of them from its cross-query memo).
    estimator_calls: int


class Optimizer:
    """DP over connected table subsets, left-deep plans, two join methods."""

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self.cost_model = CostModel()

    def plan(self, query: Query, provider: CardinalityProvider) -> PlannedQuery:
        """Build the cheapest plan for ``query`` under ``provider``."""
        tables = tuple(sorted(query.tables))
        calls = 0
        card_cache: dict[tuple[str, ...], float] = {}

        def cardinality(subset: tuple[str, ...]) -> float:
            nonlocal calls
            key = tuple(sorted(subset))
            if key not in card_cache:
                card_cache[key] = max(
                    1.0, float(provider.estimate(query.restrict(key))))
                calls += 1
            return card_cache[key]

        # Base relations.
        best: dict[frozenset, tuple[float, PlanNode]] = {}
        scans: dict[str, tuple[ScanNode, float]] = {}
        for table in tables:
            est_out = cardinality((table,))
            method, cost = self.cost_model.best_scan(
                self.dataset[table].num_rows, est_out)
            preds = tuple(p for p in query.predicates if p.table == table)
            scan = ScanNode(table, preds, method, est_out)
            scans[table] = (scan, cost)
            best[frozenset([table])] = (cost, scan)

        if len(tables) == 1:
            cost, plan = best[frozenset(tables)]
            return PlannedQuery(plan, cost, calls)

        # Grow left-deep plans one adjacent table at a time.
        for size in range(2, len(tables) + 1):
            for subset, (left_cost, left_plan) in list(best.items()):
                if len(subset) != size - 1:
                    continue
                for table in tables:
                    if table in subset:
                        continue
                    fk = self._connecting_fk(subset, table)
                    if fk is None:
                        continue
                    grown = subset | {table}
                    out_rows = cardinality(tuple(grown))
                    left_rows = cardinality(tuple(subset))
                    right_scan, right_cost = scans[table]
                    # Index-NL is available whenever the new table is the PK
                    # side (lookup by key) — i.e. the FK column lives in the
                    # already-built left side.
                    methods = (("hash", "indexnl") if fk.parent == table
                               else ("hash",))
                    for method in methods:
                        cost = self.cost_model.join(
                            method, left_cost, left_rows, right_cost,
                            right_scan.estimated_rows, out_rows)
                        if grown not in best or cost < best[grown][0]:
                            node = JoinNode(left_plan, right_scan, fk, method,
                                            out_rows)
                            best[grown] = (cost, node)

        key = frozenset(tables)
        if key not in best:
            raise ValueError(f"query tables {tables} are not joinable")
        cost, plan = best[key]
        return PlannedQuery(plan, cost, calls)

    def _connecting_fk(self, subset: frozenset, table: str):
        """The FK joining ``table`` to the connected ``subset``, if any.

        At most one member of ``subset`` neighbours ``table``: a second
        would close a cycle, and the join graph is a forest.
        """
        for other in subset:
            fk = self.dataset.fk_between(table, other)
            if fk is not None:
                return fk
        return None
