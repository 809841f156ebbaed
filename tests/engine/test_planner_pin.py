"""The optimizer's per-template schedule against the enumeration it replaced.

:class:`Optimizer` builds each join template's DP steps once and walks them
per query.  :class:`ReferenceOptimizer` keeps the previous ``plan``
verbatim: it enumerates the connected subsets on every query.  Both must
return the same plan, cost and estimator call count, and hand the provider
the same sub-queries in the same order, which a sampling estimator's RNG
stream makes visible in its estimates.
"""

from __future__ import annotations

import copy
import zlib

import numpy as np
import pytest

from loop_regime import LOOP_RANGES
from repro.ce.base import TrainingContext
from repro.ce.neurocard import NeuroCard, NeuroCardConfig
from repro.cli import fast_testbed_config
from repro.datagen.multi_table import generate_dataset
from repro.datagen.spec import random_spec
from repro.db.schema import Dataset
from repro.engine.optimizer import Optimizer, PlannedQuery
from repro.engine.plans import JoinNode, PlanNode, ScanNode, plan_signature
from repro.engine.providers import (CallableProvider, CardinalityProvider,
                                    ModelProvider)
from repro.workload.generator import generate_workload
from repro.workload.query import Query

from tests.engine.test_join_kernels import skewed_estimate

TESTBED = fast_testbed_config(0)
LOOP_SEED = 40_000_000


class ReferenceOptimizer(Optimizer):
    """The optimizer that re-enumerates the DP on every query."""

    def plan(self, query: Query, provider: CardinalityProvider) -> PlannedQuery:
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


class RecordingProvider(CallableProvider):
    """A callable provider that records every sub-query it is handed."""

    def __init__(self, fn):
        super().__init__(fn)
        self.handed: list[Query] = []

    def estimate(self, query: Query) -> float:
        self.handed.append(query)
        return super().estimate(query)


def coarse(query: Query) -> float:
    """One of four round counts per sub-query: many plans tie, and a tie
    keeps the first plan found."""
    return 100.0 * (1 + zlib.crc32(repr(query).encode()) % 4)


def describe(planned: PlannedQuery) -> tuple:
    return (plan_signature(planned.plan), planned.cost.hex(),
            planned.estimator_calls)


def assert_same_planning(dataset: Dataset, queries, make_fn) -> None:
    """Both optimizers plan every query alike and hand their providers the
    same sub-queries in the same order (one provider each for all
    queries, so the provider memo spans them as in the loop)."""
    shipped, reference = RecordingProvider(make_fn()), RecordingProvider(
        make_fn())
    optimizer, old = Optimizer(dataset), ReferenceOptimizer(dataset)
    for query in queries:
        assert describe(optimizer.plan(query, shipped)) == describe(
            old.plan(query, reference))
    assert shipped.handed == reference.handed
    assert len(shipped.handed) >= len(queries)


def spec_dataset(spec_seed: int, regime: str | None) -> Dataset:
    return generate_dataset(random_spec(
        spec_seed, ranges=LOOP_RANGES if regime else None))


def spec_queries(dataset: Dataset, seed: int, num_test: int = 40) -> list:
    """Train and test queries over every join template of ``dataset``."""
    workload = generate_workload(
        dataset, num_train=TESTBED.num_train_queries, num_test=num_test,
        seed=seed, max_templates=len(dataset.connected_subsets()))
    return list(workload.train) + list(workload.test)


#: Default-range datasets and the loop's datasets.
SPECS = [(seed_, None) for seed_ in range(8)] + \
    [(LOOP_SEED + j, "loop") for j in range(4)]


@pytest.mark.parametrize("spec_seed, regime", SPECS,
                         ids=[f"{r or 'default'}-{s}" for s, r in SPECS])
@pytest.mark.parametrize("source", ["skewed", "coarse"])
def test_same_plans_and_sub_queries(spec_seed, regime, source):
    dataset = spec_dataset(spec_seed, regime)
    queries = spec_queries(dataset, spec_seed)
    assert_same_planning(dataset, queries, lambda: (
        skewed_estimate(dataset) if source == "skewed" else coarse))


def test_specs_cover_joins_of_three_tables_and_more():
    sizes = {len(q.tables) for s, r in SPECS
             for q in spec_queries(spec_dataset(s, r), s)}
    assert {1, 2, 3} <= sizes


def test_schedule_is_built_once_per_template():
    dataset = spec_dataset(LOOP_SEED, "loop")
    queries = spec_queries(dataset, 1)
    optimizer = Optimizer(dataset)
    provider = CallableProvider(coarse)
    for query in queries:
        optimizer.plan(query, provider)
    schedules = dict(optimizer._schedules)
    assert set(schedules) == {q.template for q in queries}
    for query in queries:
        optimizer.plan(query, provider)
    assert all(optimizer._schedules[t] is steps
               for t, steps in schedules.items())


def test_not_joinable_raises_after_the_same_estimates():
    dataset = next(d for d in (spec_dataset(s, None) for s in range(40))
                   if d.num_tables >= 3 and any(
                       d.fk_between(a, b) is None
                       for a in d.table_names for b in d.table_names
                       if a < b))
    a, b = next((a, b) for a in dataset.table_names
                for b in dataset.table_names
                if a < b and dataset.fk_between(a, b) is None)
    query = Query((b, a))
    handed = []
    for optimizer in (Optimizer(dataset), ReferenceOptimizer(dataset)):
        provider = RecordingProvider(coarse)
        with pytest.raises(ValueError, match="are not joinable"):
            optimizer.plan(query, provider)
        handed.append(provider.handed)
    assert handed[0] == handed[1] == [Query((a,)), Query((b,))]


def fitted_neurocard(dataset: Dataset, workload, seed: int) -> NeuroCard:
    testbed = fast_testbed_config(seed)
    model = NeuroCard(NeuroCardConfig(
        hidden=testbed.made_hidden, epochs=testbed.made_epochs,
        num_samples=testbed.made_samples, seed=testbed.seed))
    model.fit(TrainingContext.build(dataset, workload, seed=seed,
                                    sample_size=testbed.sample_size))
    return model


def assert_same_neurocard_estimates(dataset: Dataset, queries,
                                    model: NeuroCard) -> None:
    """NeuroCard draws from one RNG stream on every estimate, so planning
    that asked for sub-plans in another order would see other estimates."""
    runs = []
    for optimizer in (Optimizer(dataset), ReferenceOptimizer(dataset)):
        # Copies of the fitted model start from the same RNG state.
        provider = ModelProvider(copy.deepcopy(model))
        plans = [describe(optimizer.plan(q, provider)) for q in queries]
        memo = np.array(list(provider._memo.values()), dtype=np.float64)
        runs.append((plans, list(provider._memo), memo.tobytes()))
    assert runs[0] == runs[1]


@pytest.fixture(scope="module")
def neurocard_loop():
    """NeuroCard fitted on two loop datasets, with their queries."""
    fitted = []
    for j in range(2):
        dataset = spec_dataset(LOOP_SEED + j, "loop")
        workload = generate_workload(
            dataset, num_train=TESTBED.num_train_queries, num_test=40,
            seed=j, max_templates=len(dataset.connected_subsets()))
        fitted.append((dataset, list(workload.test),
                       fitted_neurocard(dataset, workload, j)))
    return fitted


def test_neurocard_estimates_are_drawn_in_the_same_order(neurocard_loop):
    for dataset, queries, model in neurocard_loop:
        assert_same_neurocard_estimates(dataset, queries, model)


def test_neurocard_order_is_visible(neurocard_loop):
    """The guard above has teeth: the same sub-queries asked in reverse
    order get other estimates."""
    dataset, queries, model = neurocard_loop[0]
    subs = list(dict.fromkeys(
        query.restrict(t) for query in queries
        for t in dataset.connected_subsets() if set(t) <= set(query.tables)))
    forward, backward = copy.deepcopy(model), copy.deepcopy(model)
    ahead = {q: forward.estimate(q) for q in subs}
    behind = {q: backward.estimate(q) for q in reversed(subs)}
    assert ahead != behind


@pytest.mark.slow
def test_every_loop_query():
    """All 4 096 queries of the optimizer loop (16 datasets x 256, as the
    benchmark draws them at seed 4242)."""
    seed = 4242
    testbed = fast_testbed_config(seed)
    for j in range(16):
        dataset = spec_dataset(LOOP_SEED + j, "loop")
        workload = generate_workload(
            dataset, num_train=testbed.num_train_queries, num_test=256,
            seed=seed * 1_000 + j,
            max_templates=len(dataset.connected_subsets()))
        for source in (lambda: skewed_estimate(dataset), lambda: coarse):
            assert_same_planning(dataset, workload.test, source)
        assert_same_neurocard_estimates(
            dataset, workload.test, fitted_neurocard(dataset, workload, seed))
