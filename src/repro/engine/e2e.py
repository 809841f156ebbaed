"""End-to-end latency harness (Sec. VII-D, Table V).

For every query: (1) the optimizer asks the provider under test for the
cardinality of each connected sub-plan, (2) the cheapest plan is built from
those estimates, (3) the plan is executed for real.  Reported per workload:
total execution wall-clock ("running time"), total estimator wall-clock
("inference latency") and the summed optimizer plan cost, matching Table
V's two components plus a plan-quality axis.

:func:`run_e2e` and :func:`recost_plan` take a
:class:`~repro.engine.providers.CardinalityProvider`; a caller wraps its
own model (``ModelProvider(model)``, ``TrueCardProvider(dataset)``).
Inference accounting is delegated to the provider layer: a provider whose
``counts_inference_time`` is False (the TrueCard oracle) reports zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..db.schema import Dataset
from ..workload.query import Query
from .cost import CostModel
from .execution import Executor
from .optimizer import Optimizer, PlannedQuery
from .plans import PlanNode, ScanNode, plan_signature
from .providers import CardinalityProvider


@dataclass
class E2EResult:
    """Aggregate outcome of one (dataset, provider) workload run."""

    estimator: str
    execution_time: float
    inference_time: float
    queries: int
    result_rows: int
    #: Summed optimizer objective of the chosen plans (cost-model units,
    #: under the provider's *own* estimates — see :func:`recost_plan` for
    #: the true-cardinality re-costing Table V records).
    plan_cost: float = 0.0
    #: The chosen plans, in query order (deterministic given the provider).
    plans: tuple[PlannedQuery, ...] = ()

    @property
    def plan_signatures(self) -> tuple[str, ...]:
        """Structural signatures of the chosen plans (for agreement)."""
        return tuple(plan_signature(p.plan) for p in self.plans)


def run_e2e(dataset: Dataset, queries: list[Query],
            provider: CardinalityProvider) -> E2EResult:
    """Plan and execute a workload with cardinalities from ``provider``.

    Inference latency is the provider's own accounting — calls served
    from the sub-plan memo cost nothing, and oracle providers report zero.
    """
    provider.reset_stats()
    optimizer = Optimizer(dataset)
    executor = Executor(dataset)
    execution_time = 0.0
    rows = 0
    plan_cost = 0.0
    plans: list[PlannedQuery] = []
    for query in queries:
        planned = optimizer.plan(query, provider)
        plans.append(planned)
        plan_cost += planned.cost
        outcome = executor.execute(planned.plan)
        execution_time += outcome.elapsed
        rows += outcome.rows
    return E2EResult(
        estimator=provider.name,
        execution_time=execution_time,
        inference_time=provider.inference_time,
        queries=len(queries),
        result_rows=rows,
        plan_cost=plan_cost,
        plans=tuple(plans),
    )


def recost_plan(plan: PlanNode, dataset: Dataset,
                provider: CardinalityProvider) -> float:
    """Cost a *fixed* plan under another provider's cardinalities.

    The plan-quality metric Table V records: take the physical
    plan an estimator chose, keep its join order and operators, and
    re-price it with (typically true) cardinalities from ``provider``.
    An optimistic misestimate that seduced the optimizer into a bad join
    order shows up as a high *true* cost even though the plan's own
    annotated cost looked cheap.  Re-costing a plan under the provider
    that chose it gives back the optimizer's own cost exactly: both price
    through the same :class:`CostModel` rule in the same order.
    """
    cost_model = CostModel()

    def sub_query(node: PlanNode) -> Query:
        predicates: list = []
        stack = [node]
        while stack:
            cursor = stack.pop()
            if isinstance(cursor, ScanNode):
                predicates.extend(cursor.predicates)
            else:
                stack.extend((cursor.left, cursor.right))
        return Query(node.tables, tuple(predicates))

    def walk(node: PlanNode) -> tuple[float, float]:
        """Returns (cost, output_rows) of ``node`` under the provider."""
        out = max(1.0, float(provider.estimate(sub_query(node))))
        if isinstance(node, ScanNode):
            return cost_model.scan(node.method,
                                   dataset[node.table].num_rows, out), out
        left_cost, left_rows = walk(node.left)
        right_cost, right_rows = walk(node.right)
        return cost_model.join(node.method, left_cost, left_rows,
                               right_cost, right_rows, out), out

    cost, _ = walk(plan)
    return cost
