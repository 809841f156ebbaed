"""The PostgreSQL substitute: cost model, optimizer, executor, E2E harness."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.counting import count_join
from repro.engine.cost import (HASH_BUILD_COST, HASH_PROBE_COST,
                               NL_LOOKUP_COST, OUTPUT_ROW_COST, CostModel)
from repro.engine.e2e import run_e2e
from repro.engine.execution import Executor
from repro.engine.optimizer import Optimizer
from repro.engine.plans import JoinNode, ScanNode
from repro.engine.providers import (CallableProvider, ModelProvider,
                                    TrueCardProvider)
from repro.workload.generator import generate_query
from repro.workload.query import Predicate, Query


class TestCostModel:
    def test_selective_prefers_index(self):
        cost = CostModel()
        method, _ = cost.best_scan(table_rows=100_000, output_rows=5)
        assert method == "index"

    def test_unselective_prefers_seq(self):
        cost = CostModel()
        method, _ = cost.best_scan(table_rows=1000, output_rows=900)
        assert method == "seq"

    def test_index_nl_beats_hash_for_small_outer(self):
        cost = CostModel()
        right_cost = cost.scan("seq", 100_000, 100_000)
        nl = cost.join("indexnl", 0.0, 10, right_cost, 100_000, 10)
        hash_ = cost.join("hash", 0.0, 10, right_cost, 100_000, 10)
        assert nl < hash_

    def test_indexnl_join_ignores_right_scan_cost(self):
        cost = CostModel()
        cheap = cost.join("indexnl", 50.0, 10, 1.0, 100, 20)
        dear = cost.join("indexnl", 50.0, 10, 1e6, 100, 20)
        assert cheap == dear
        assert (cost.join("hash", 50.0, 10, 1e6, 100, 20)
                > cost.join("hash", 50.0, 10, 1.0, 100, 20))

    def test_join_sums_inputs_before_join_term(self):
        # The optimizer and recost_plan both rely on this order to price a
        # plan bit-identically; these inputs round differently under
        # left + (right + join) or (left + join) + right.
        cost = CostModel()
        left, right = 0.1, 0.3
        assert cost.join("hash", left, 7.0, right, 3.0, 11.0) == (
            (left + right) + (HASH_BUILD_COST * 3.0 + HASH_PROBE_COST * 7.0
                              + OUTPUT_ROW_COST * 11.0))
        assert cost.join("indexnl", left, 7.0, right, 3.0, 11.0) == (
            left + (NL_LOOKUP_COST * 7.0 + OUTPUT_ROW_COST * 11.0))


class TestOptimizer:
    def test_single_table_plan(self, small_dataset, small_workload):
        query = next(q for q in small_workload.test if len(q.tables) == 1)
        opt = Optimizer(small_dataset)
        planned = opt.plan(query, TrueCardProvider(small_dataset))
        assert isinstance(planned.plan, ScanNode)
        assert planned.estimator_calls == 1

    def test_multi_table_plan_covers_all_tables(self, small_dataset,
                                                small_workload):
        query = max(small_workload.test, key=lambda q: len(q.tables))
        opt = Optimizer(small_dataset)
        planned = opt.plan(query, TrueCardProvider(small_dataset))
        assert set(planned.plan.tables) == set(query.tables)

    def test_estimator_calls_cached_per_subset(self, small_dataset,
                                               small_workload):
        query = max(small_workload.test, key=lambda q: len(q.tables))
        opt = Optimizer(small_dataset)
        calls = []

        def estimator(sub):
            calls.append(sub.template)
            return 10.0

        provider = CallableProvider(estimator)
        opt.plan(query, provider)
        # The optimizer asks once per subset: no duplicate estimates reach
        # the provider, so its memo serves none.
        assert provider.stats.calls == len(calls) == len(set(calls))
        assert provider.stats.memo_hits == 0

    def test_unjoinable_rejected(self, small_dataset):
        # Construct a disconnected pair if the schema has one.
        names = sorted(small_dataset.table_names)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                pair = (names[i], names[j])
                if not small_dataset.is_connected_subset(pair):
                    opt = Optimizer(small_dataset)
                    with pytest.raises(ValueError):
                        opt.plan(Query(pair),
                                 CallableProvider(lambda q: 1.0))
                    return
        pytest.skip("schema fully connected")

    def test_plan_describe_renders(self, small_dataset, small_workload):
        query = max(small_workload.test, key=lambda q: len(q.tables))
        planned = Optimizer(small_dataset).plan(
            query, TrueCardProvider(small_dataset))
        text = planned.plan.describe()
        for table in query.tables:
            assert table in text

    def test_plan_joins_enumeration(self, small_dataset, small_workload):
        query = max(small_workload.test, key=lambda q: len(q.tables))
        planned = Optimizer(small_dataset).plan(
            query, TrueCardProvider(small_dataset))
        joins, node = 0, planned.plan
        while isinstance(node, JoinNode):
            joins, node = joins + 1, node.left
        assert joins == len(query.tables) - 1


class TestExecutor:
    def test_rows_match_exact_count(self, small_dataset, small_workload):
        opt = Optimizer(small_dataset)
        executor = Executor(small_dataset)
        true = TrueCardProvider(small_dataset)
        for query in small_workload.test:
            planned = opt.plan(query, true)
            result = executor.execute(planned.plan)
            expected = count_join(small_dataset, query.tables,
                                  query.predicate_tuples())
            assert result.rows == expected

    def test_rows_invariant_to_estimator(self, small_dataset, small_workload):
        """Any estimate quality must yield the same answer, only other speed."""
        opt = Optimizer(small_dataset)
        executor = Executor(small_dataset)
        query = max(small_workload.test, key=lambda q: len(q.tables))
        plans = [
            opt.plan(query, CallableProvider(lambda q: 1.0)).plan,
            opt.plan(query, CallableProvider(lambda q: 1e9)).plan,
            opt.plan(query, TrueCardProvider(small_dataset)).plan,
        ]
        rows = {executor.execute(p).rows for p in plans}
        assert len(rows) == 1

    def test_index_and_seq_scan_agree(self, small_dataset):
        table = small_dataset.table_names[0]
        col = small_dataset[table].data_columns()[0]
        preds = (Predicate(table, col, 2, 6),)
        executor = Executor(small_dataset)
        seq = executor.execute(ScanNode(table, preds, "seq"))
        index = executor.execute(ScanNode(table, preds, "index"))
        assert seq.rows == index.rows

    def test_empty_result(self, small_dataset):
        table = small_dataset.table_names[0]
        col = small_dataset[table].data_columns()[0]
        hi = int(small_dataset[table][col].max())
        preds = (Predicate(table, col, hi + 10, hi + 20),)
        result = Executor(small_dataset).execute(ScanNode(table, preds, "seq"))
        assert result.rows == 0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_random_queries_exact(self, small_dataset, seed):
        rng = np.random.default_rng(seed)
        templates = small_dataset.connected_subsets()
        query = generate_query(small_dataset, rng, templates)
        planned = Optimizer(small_dataset).plan(
            query, TrueCardProvider(small_dataset))
        result = Executor(small_dataset).execute(planned.plan)
        assert result.rows == count_join(small_dataset, query.tables,
                                         query.predicate_tuples())


class TestE2E:
    def test_truecard_has_zero_inference(self, small_dataset, small_workload):
        result = run_e2e(small_dataset, small_workload.test[:5],
                         TrueCardProvider(small_dataset))
        assert result.inference_time == 0.0
        assert result.execution_time > 0.0
        assert result.queries == 5

    def test_result_rows_count_each_query_once(self, small_dataset,
                                               small_workload):
        queries = small_workload.test[:5]
        result = run_e2e(small_dataset, queries,
                         TrueCardProvider(small_dataset))
        assert result.result_rows == sum(
            count_join(small_dataset, q.tables, q.predicate_tuples())
            for q in queries)

    def test_model_inference_time_recorded(self, small_dataset,
                                           small_workload, small_ctx):
        from repro.ce.postgres import PostgresEstimator
        model = PostgresEstimator()
        model.fit(small_ctx)
        result = run_e2e(small_dataset, small_workload.test[:5],
                         ModelProvider(model))
        assert result.inference_time > 0.0
