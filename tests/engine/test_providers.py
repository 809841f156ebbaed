"""The estimator-provider layer: memo, fallback chain, timing rule,
plan determinism, and the advisor-in-the-loop smoke test."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.ce.postgres import PostgresEstimator
from repro.core.advisor import AutoCE, AutoCEConfig
from repro.core.dml import DMLConfig
from repro.engine.e2e import recost_plan, run_e2e
from repro.engine.optimizer import Optimizer
from repro.engine.plans import plan_signature
from repro.engine.providers import (AdvisorProvider, CallableProvider,
                                    ModelProvider, TrueCardProvider)
from repro.testbed.scores import ScoreLabel
from repro.workload.query import Query


class TestMemoAccounting:
    def test_memo_serves_repeat_subqueries(self, small_dataset,
                                           small_workload):
        underlying = []

        def source(query):
            underlying.append(query)
            return 10.0

        provider = CallableProvider(source, name="counted")
        query = max(small_workload.test, key=lambda q: len(q.tables))
        sub = query.restrict(query.tables[:1])
        assert provider.estimate(sub) == 10.0
        assert provider.estimate(sub) == 10.0
        assert provider.stats.calls == 2
        assert provider.stats.memo_hits == 1
        assert len(underlying) == 1

    def test_every_provider_memoizes(self, small_dataset, small_workload,
                                     small_ctx):
        model = PostgresEstimator()
        model.fit(small_ctx)
        query = small_workload.test[0]
        for provider in (TrueCardProvider(small_dataset),
                         ModelProvider(model)):
            first = provider.estimate(query)
            elapsed = provider.stats.elapsed_s
            assert provider.estimate(query) == first
            assert provider.stats.memo_hits == 1
            assert provider.stats.elapsed_s == elapsed

    def test_memo_spans_optimizer_queries(self, small_dataset,
                                          small_workload):
        """Re-planning the same query hits the provider memo throughout."""
        provider = TrueCardProvider(small_dataset)
        optimizer = Optimizer(small_dataset)
        query = max(small_workload.test, key=lambda q: len(q.tables))
        optimizer.plan(query, provider)
        first_hits = provider.stats.memo_hits
        calls_after_first = provider.stats.calls
        optimizer.plan(query, provider)
        assert provider.stats.calls > calls_after_first
        # Every estimate of the second plan() was served from the memo.
        assert (provider.stats.memo_hits - first_hits
                == provider.stats.calls - calls_after_first)


class TestFallbackChain:
    def test_source_exception_falls_back(self):
        def broken(query):
            raise RuntimeError("model crashed")

        fallback = CallableProvider(lambda q: 42.0, name="histogram")
        provider = CallableProvider(broken, name="broken", fallback=fallback)
        assert provider.estimate(Query(("t",))) == 42.0
        assert provider.stats.fallbacks == 1
        assert fallback.stats.calls == 1

    def test_invalid_estimate_falls_back(self):
        values = iter([float("nan"), float("inf"), -3.0])
        fallback = CallableProvider(lambda q: 5.0)
        provider = CallableProvider(lambda q: next(values),
                                    fallback=fallback)
        for table in ("t1", "t2", "t3"):
            assert provider.estimate(Query((table,))) == 5.0
        assert provider.stats.fallbacks == 3
        assert provider.stats.memo_hits == 0

    def test_zero_is_a_valid_estimate_not_a_fallback(self):
        fallback = CallableProvider(lambda q: 99.0)
        provider = CallableProvider(lambda q: 0.0, fallback=fallback)
        assert provider.estimate(Query(("t",))) == 0.0
        assert provider.stats.fallbacks == 0

    def test_no_fallback_reraises(self):
        def broken(query):
            raise RuntimeError("model crashed")

        with pytest.raises(RuntimeError):
            CallableProvider(broken).estimate(Query(("t",)))

    def test_no_fallback_invalid_raises_value_error(self):
        with pytest.raises(ValueError):
            CallableProvider(lambda q: float("nan")).estimate(Query(("t",)))

    def test_unfitted_model_falls_back_instead_of_one_row(self,
                                                          small_dataset):
        from repro.ce import DeepDB
        oracle = TrueCardProvider(small_dataset)
        provider = ModelProvider(DeepDB(), fallback=oracle)
        table = small_dataset.table_names[0]
        expected = float(small_dataset[table].num_rows)
        assert provider.estimate(Query((table,))) == expected
        assert provider.stats.fallbacks == 1

    def test_chain_of_three(self, small_dataset):
        oracle = TrueCardProvider(small_dataset)
        middle = CallableProvider(lambda q: float("nan"), name="mid",
                                  fallback=oracle)
        head = CallableProvider(lambda q: (_ for _ in ()).throw(IOError()),
                                name="head", fallback=middle)
        table = small_dataset.table_names[0]
        expected = float(small_dataset[table].num_rows)
        assert head.estimate(Query((table,))) == expected
        assert head.stats.fallbacks == 1
        assert middle.stats.fallbacks == 1
        # The oracle's clock never counts as inference anywhere up the chain.
        assert oracle.inference_time == 0.0


class TestInferenceTimeRule:
    def test_oracle_clock_reads_zero(self, small_dataset, small_workload):
        provider = TrueCardProvider(small_dataset)
        for query in small_workload.test[:5]:
            provider.estimate(query)
        assert provider.stats.elapsed_s > 0.0
        assert provider.inference_time == 0.0

    def test_model_clock_counts(self, small_dataset, small_workload,
                                small_ctx):
        model = PostgresEstimator()
        model.fit(small_ctx)
        provider = ModelProvider(model)
        for query in small_workload.test[:5]:
            provider.estimate(query)
        assert provider.inference_time == provider.stats.elapsed_s > 0.0
        assert provider.name == "Postgres"


class TestPlanDeterminism:
    def test_double_run_byte_identical(self, small_dataset, small_workload,
                                       small_ctx):
        """Same provider → byte-identical PlannedQuery across double runs."""
        model = PostgresEstimator()
        model.fit(small_ctx)

        def plan_all():
            provider = ModelProvider(model)
            optimizer = Optimizer(small_dataset)
            return [optimizer.plan(q, provider) for q in small_workload.test]

        first, second = plan_all(), plan_all()
        assert pickle.dumps(first) == pickle.dumps(second)
        assert [plan_signature(p.plan) for p in first] \
            == [plan_signature(p.plan) for p in second]

    def test_run_e2e_plans_deterministic(self, small_dataset, small_workload):
        a = run_e2e(small_dataset, small_workload.test[:5],
                    TrueCardProvider(small_dataset))
        b = run_e2e(small_dataset, small_workload.test[:5],
                    TrueCardProvider(small_dataset))
        assert a.plan_signatures == b.plan_signatures
        assert a.plan_cost == b.plan_cost
        assert a.result_rows == b.result_rows

    def test_recost_plan_matches_optimizer_objective(self, small_dataset,
                                                     small_workload):
        """Re-costing a TrueCard plan under TrueCard cardinalities must
        reproduce the optimizer's own objective for that plan exactly: both
        price through one cost rule, summed in the same order."""
        provider = TrueCardProvider(small_dataset)
        optimizer = Optimizer(small_dataset)
        for query in small_workload.test:
            planned = optimizer.plan(query, provider)
            recost = recost_plan(planned.plan, small_dataset, provider)
            assert recost == planned.cost


def _biased_labels(names: tuple[str, ...], favorite: str,
                   count: int) -> list[ScoreLabel]:
    """Labels ranking ``favorite`` best on accuracy and efficiency."""
    labels = []
    for _ in range(count):
        sa = np.full(len(names), 0.2)
        se = np.full(len(names), 0.2)
        sa[names.index(favorite)] = 1.0
        se[names.index(favorite)] = 1.0
        labels.append(ScoreLabel(model_names=names, sa=sa, se=se))
    return labels


class TestAdvisorInTheLoop:
    def test_advisor_provider_smoke(self, small_dataset, single_dataset,
                                    small_workload, small_ctx):
        """2-dataset corpus → AutoCE pick → delegated planning end to end."""
        names = ("Postgres", "Unfitted")
        advisor = AutoCE(AutoCEConfig(
            hidden_dim=8, embedding_dim=8, use_incremental=False,
            dml=DMLConfig(epochs=2, batch_size=2), seed=0))
        graphs = [advisor.featurize(small_dataset),
                  advisor.featurize(single_dataset)]
        advisor.fit_graphs(graphs, _biased_labels(names, "Postgres", 2))

        postgres = PostgresEstimator()
        postgres.fit(small_ctx)
        models = {"Postgres": postgres, "Unfitted": PostgresEstimator()}
        provider = AdvisorProvider(advisor, graphs[0], models,
                                   accuracy_weight=1.0)
        result = run_e2e(small_dataset, small_workload.test[:5], provider)
        assert provider.picked == "Postgres"
        assert result.estimator == "AutoCE(w_a=1)"
        # The executed answers must equal the TrueCard run's answers —
        # estimates steer plans, never results.
        oracle = run_e2e(small_dataset, small_workload.test[:5],
                         TrueCardProvider(small_dataset))
        assert result.result_rows == oracle.result_rows
        assert result.inference_time > 0.0

    def test_advisor_pick_outside_models_raises(self, small_dataset,
                                                single_dataset):
        advisor = AutoCE(AutoCEConfig(
            hidden_dim=8, embedding_dim=8, use_incremental=False,
            dml=DMLConfig(epochs=2, batch_size=2), seed=0))
        graphs = [advisor.featurize(small_dataset),
                  advisor.featurize(single_dataset)]
        advisor.fit_graphs(graphs, _biased_labels(("A", "B"), "A", 2))
        provider = AdvisorProvider(advisor, graphs[0],
                                   {"B": PostgresEstimator()})
        with pytest.raises(KeyError):
            provider.pick()


class TestProviderHygiene:
    def test_reset_stats_keeps_memo(self):
        calls = []
        provider = CallableProvider(lambda q: calls.append(q) or 3.0)
        sub = Query(("t",))
        provider.estimate(sub)
        provider.reset_stats()
        assert provider.stats.calls == 0
        provider.estimate(sub)
        assert provider.stats.memo_hits == 1
        assert len(calls) == 1

    def test_repr_names_provider(self, small_dataset):
        assert "TrueCard" in repr(TrueCardProvider(small_dataset))
