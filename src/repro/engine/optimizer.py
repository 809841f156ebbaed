"""Selinger-style join-order optimization with injected cardinalities.

Enumerates left-deep plans over the connected subsets of a query's join
graph.  Every sub-plan's cardinality is obtained from the
:class:`~repro.engine.providers.CardinalityProvider` under test
(``provider.estimate(sub_query)``), exactly mirroring how the paper
injects estimated cardinalities of all sub-plan queries into PostgreSQL.
Plans are priced by :class:`~repro.engine.cost.CostModel`, the rule
:func:`~repro.engine.e2e.recost_plan` re-prices them with.

The DP's enumeration (which subset grows by which table over which FK)
depends only on the dataset and the query's table set, not on any cost:
a subset is added when it is first reached, and a cheaper plan later only
replaces its value.  :class:`Optimizer` therefore builds each join
template's step list once and, per query, walks it pricing plans.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..db.schema import Dataset, ForeignKey
from ..workload.query import Query
from .cost import CostModel
from .plans import JoinNode, PlanNode, ScanNode
from .providers import CardinalityProvider

#: One DP step: ``(left, table, fk, grown, methods)`` joins base ``table``
#: over ``fk`` to the best plan of the ``left`` subset, giving the
#: ``grown`` subset, with each of the join ``methods``.  Subsets are
#: sorted table tuples.
Step = tuple[tuple[str, ...], str, ForeignKey, tuple[str, ...],
             tuple[str, ...]]


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
        #: Sorted table set -> its DP steps (see :meth:`_schedule`).
        self._schedules: dict[tuple[str, ...], tuple[Step, ...]] = {}

    def plan(self, query: Query, provider: CardinalityProvider) -> PlannedQuery:
        """Build the cheapest plan for ``query`` under ``provider``.

        Estimates are requested base tables first, in sorted order, then
        each subset when a step first reaches it: the order of the
        enumeration, which matters to sampling estimators.  Of equally
        cheap plans for a subset the first found is kept.
        """
        tables = tuple(sorted(query.tables))
        cards: dict[tuple[str, ...], float] = {}

        def cardinality(sub_query: Query) -> float:
            card = cards[sub_query.tables] = max(
                1.0, float(provider.estimate(sub_query)))
            return card

        # Base relations; a scan takes its table's sub-query's predicates.
        best: dict[tuple[str, ...], tuple[float, PlanNode]] = {}
        scans: dict[str, tuple[ScanNode, float]] = {}
        for table in tables:
            sub_query = query.restrict((table,))
            est_out = cardinality(sub_query)
            method, cost = self.cost_model.best_scan(
                self.dataset[table].num_rows, est_out)
            scan = ScanNode(table, sub_query.predicates, method, est_out)
            scans[table] = (scan, cost)
            best[(table,)] = (cost, scan)

        steps = self._schedules.get(tables)
        if steps is None:
            steps = self._schedules[tables] = self._schedule(tables)
        # Grow left-deep plans one adjacent table at a time.
        join = self.cost_model.join
        for left, table, fk, grown, methods in steps:
            out_rows = cards.get(grown)
            if out_rows is None:
                out_rows = cardinality(query.restrict(grown))
            left_rows = cards[left]  # estimated when first reached
            left_cost, left_plan = best[left]
            right_scan, right_cost = scans[table]
            for method in methods:
                cost = join(method, left_cost, left_rows, right_cost,
                            right_scan.estimated_rows, out_rows)
                current = best.get(grown)
                if current is None or cost < current[0]:
                    best[grown] = (cost, JoinNode(left_plan, right_scan, fk,
                                                  method, out_rows))

        final = best.get(tables)
        if final is None:
            raise ValueError(f"query tables {tables} are not joinable")
        return PlannedQuery(final[1], final[0], len(cards))

    def _schedule(self, tables: tuple[str, ...]) -> tuple[Step, ...]:
        """The DP's steps over the sorted ``tables``, in enumeration order.

        For each size, every subset one table smaller, in the order the
        subsets were first reached, grows by each adjacent table in
        sorted order.  Index-NL is offered whenever the new table is the
        PK side (lookup by key), i.e. the FK column lives in the left side.
        """
        reached = {frozenset([table]): (table,) for table in tables}
        steps: list[Step] = []
        for size in range(2, len(tables) + 1):
            for subset, left in list(reached.items()):
                if len(subset) != size - 1:
                    continue
                for table in tables:
                    if table in subset:
                        continue
                    fk = self._connecting_fk(subset, table)
                    if fk is None:
                        continue
                    grown = subset | {table}
                    if grown not in reached:
                        reached[grown] = tuple(sorted(grown))
                    methods = (("hash", "indexnl") if fk.parent == table
                               else ("hash",))
                    steps.append((left, table, fk, reached[grown], methods))
        return tuple(steps)

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
