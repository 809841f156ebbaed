"""Property-style tests of the optimizer/executor substrate.

The engine is the PostgreSQL substitute of Table V, so its load-bearing
properties are (1) *execution correctness* — a plan returns exactly the
query's true cardinality regardless of join order or operators — and
(2) *cost sensitivity* — misestimated cardinalities really do change plans.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.counting import count_join
from repro.engine.cost import CostModel
from repro.engine.e2e import recost_plan
from repro.engine.execution import Executor
from repro.engine.optimizer import Optimizer
from repro.engine.plans import JoinNode, ScanNode
from repro.engine.providers import CallableProvider, TrueCardProvider
from repro.workload.generator import generate_query
from repro.workload.query import Predicate, Query


@pytest.fixture(scope="module")
def planner(small_dataset):
    return Optimizer(small_dataset)


@pytest.fixture(scope="module")
def truecard(small_dataset):
    return TrueCardProvider(small_dataset)


class TestExecutionCorrectness:
    """Executed row counts must equal the exact join counts."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_plan_count_matches_ground_truth(self, small_dataset, planner,
                                             truecard, seed):
        rng = np.random.default_rng(seed)
        templates = small_dataset.connected_subsets()
        query = generate_query(small_dataset, rng, templates)
        true = count_join(small_dataset, query.tables,
                          query.predicate_tuples())
        planned = planner.plan(query, truecard)
        result = Executor(small_dataset).execute(planned.plan)
        assert result.rows == true

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), noise=st.floats(0.01, 100.0))
    def test_count_correct_even_with_bad_estimates(self, small_dataset,
                                                   planner, truecard, seed,
                                                   noise):
        """Misestimation may change the plan, never the answer."""
        rng = np.random.default_rng(seed)
        templates = small_dataset.connected_subsets()
        query = generate_query(small_dataset, rng, templates)
        true = count_join(small_dataset, query.tables,
                          query.predicate_tuples())
        planned = planner.plan(query, CallableProvider(
            lambda q: truecard.estimate(q) * noise + 1.0))
        result = Executor(small_dataset).execute(planned.plan)
        assert result.rows == true

    def test_index_and_seq_scans_agree(self, small_dataset):
        table = small_dataset.table_names[0]
        column = small_dataset[table].data_columns()[0]
        values = small_dataset[table][column]
        lo, hi = int(np.percentile(values, 20)), int(np.percentile(values, 70))
        preds = (Predicate(table, column, lo, hi),)
        executor = Executor(small_dataset)
        seq = executor._scan(ScanNode(table, preds, method="seq"))
        index = executor._scan(ScanNode(table, preds, method="index"))
        np.testing.assert_array_equal(np.sort(seq), np.sort(index))


class TestPlanStructure:
    def test_plan_covers_all_tables(self, small_dataset, planner, truecard):
        query = Query(tuple(small_dataset.table_names))
        planned = planner.plan(query, truecard)
        assert set(planned.plan.tables) == set(small_dataset.table_names)

    def test_join_count_is_tables_minus_one(self, small_dataset, planner,
                                            truecard):
        query = Query(tuple(small_dataset.table_names))
        planned = planner.plan(query, truecard)
        joins, node = 0, planned.plan
        while isinstance(node, JoinNode):
            joins, node = joins + 1, node.left
        assert joins == len(query.tables) - 1

    def test_single_table_plan_is_scan(self, small_dataset, planner, truecard):
        query = Query((small_dataset.table_names[0],))
        planned = planner.plan(query, truecard)
        assert isinstance(planned.plan, ScanNode)

    def test_disconnected_tables_rejected(self, planner):
        with pytest.raises(Exception):
            planner.plan(Query(("tableA", "tableB")),
                         CallableProvider(lambda q: 1.0))

    def test_estimator_called_per_connected_subset(self, small_dataset,
                                                   planner, truecard):
        query = Query(tuple(small_dataset.table_names))
        planned = planner.plan(query, truecard)
        # One call per connected subset, memoized.
        subsets = small_dataset.connected_subsets()
        assert planned.estimator_calls <= len(subsets)
        assert planned.estimator_calls >= len(query.tables)

    def test_describe_mentions_every_table(self, small_dataset, planner,
                                           truecard):
        query = Query(tuple(small_dataset.table_names))
        planned = planner.plan(query, truecard)
        text = planned.plan.describe()
        for table in small_dataset.table_names:
            assert table in text


class TestCostSensitivity:
    def test_overestimates_flip_scan_method(self, small_dataset, planner):
        """A tiny selective scan should use the index; a huge one seq."""
        table = small_dataset.table_names[0]
        rows = small_dataset[table].num_rows
        model = CostModel()
        selective_method, _ = model.best_scan(rows, 1.0)
        full_method, _ = model.best_scan(rows, float(rows))
        assert selective_method == "index"
        assert full_method == "seq"

    def test_wild_overestimate_changes_plan_cost(self, small_dataset, planner,
                                                 truecard):
        query = Query(tuple(small_dataset.table_names))
        good = planner.plan(query, truecard)
        bad = planner.plan(query, CallableProvider(lambda q: 1e7))
        assert bad.cost > good.cost

    def test_truecard_plan_is_cheapest_under_true_costing(
            self, small_dataset, planner, truecard):
        """Planning with the truth can never lose to planning with noise,
        when both plans are re-costed under the truth."""
        rng = np.random.default_rng(7)
        query = Query(tuple(small_dataset.table_names))
        base = planner.plan(query, truecard)
        for trial in range(3):
            noisy = planner.plan(query, CallableProvider(
                lambda q: truecard.estimate(q) * float(rng.uniform(0.01, 100))))
            # The optimizer believes its own numbers; the plan found with
            # the truth is optimal for the DP's search space.
            true_cost = recost_plan(noisy.plan, small_dataset, truecard)
            assert base.cost <= true_cost * (1.0 + 1e-12)
