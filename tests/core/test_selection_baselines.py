"""The five selection baselines of Sec. VII-A."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ce.registry import DATA_DRIVEN_MODELS, QUERY_DRIVEN_MODELS
from repro.core.selection_baselines import (LearningAllSelector, MLPSelector,
                                            OnlineSelectorConfig,
                                            RawFeatureKnnSelector,
                                            RegressionSelector, RuleSelector,
                                            SamplingSelector)
from repro.db.sampling import subsample_dataset
from repro.testbed.runner import TestbedConfig, run_testbed
from tests.core.test_advisor_stack import MODELS, synthetic_corpus


@pytest.fixture(scope="module")
def corpus():
    return synthetic_corpus(n=24)


class TestMLPSelector:
    def test_learns_synthetic_mapping(self, corpus):
        graphs, labels = corpus
        selector = MLPSelector(epochs=40, seed=0)
        selector.fit(graphs, labels)
        hits = sum(selector.recommend(g, 1.0) == lab.best_model(1.0)
                   for g, lab in zip(graphs, labels))
        assert hits >= len(graphs) * 0.6

    def test_returns_valid_model(self, corpus):
        graphs, labels = corpus
        selector = MLPSelector(epochs=5, seed=0)
        selector.fit(graphs, labels)
        assert selector.recommend(graphs[0], 0.5) in MODELS


class TestRegressionSelector:
    def test_learns_synthetic_mapping(self, corpus):
        graphs, labels = corpus
        selector = RegressionSelector(epochs=40, seed=0)
        selector.fit(graphs, labels)
        hits = sum(selector.recommend(g, 1.0) == lab.best_model(1.0)
                   for g, lab in zip(graphs, labels))
        assert hits >= len(graphs) * 0.5

    def test_name(self):
        assert RegressionSelector().name == "Without-DML"


class TestRuleSelector:
    def test_single_table_picks_data_driven(self, corpus):
        from repro.testbed.scores import DatasetLabel
        graphs, _ = corpus
        labels = [DatasetLabel(tuple(DATA_DRIVEN_MODELS + QUERY_DRIVEN_MODELS),
                               np.arange(6) + 1.0, np.arange(6) + 1.0)
                  for _ in graphs]
        selector = RuleSelector(seed=0)
        selector.fit(graphs, labels)
        single = next(g for g in graphs if g.num_tables == 1)
        multi = next(g for g in graphs if g.num_tables > 1)
        for _ in range(5):
            assert selector.recommend(single, 1.0) in DATA_DRIVEN_MODELS
            assert selector.recommend(multi, 1.0) in QUERY_DRIVEN_MODELS

    def test_picks_do_not_depend_on_earlier_calls(self, corpus):
        graphs, labels = corpus
        selector = RuleSelector(seed=0)
        selector.fit(graphs, labels)
        forward = [selector.recommend(g, 1.0) for g in graphs]
        backward = [selector.recommend(g, 1.0) for g in reversed(graphs)]
        assert backward[::-1] == forward
        for graph in graphs[:5]:
            selector.recommend(graph, 0.5)
        assert [selector.recommend(g, 1.0) for g in graphs] == forward
        # A second selector of the same seed agrees; the draws are not
        # one constant pick.
        other = RuleSelector(seed=0)
        other.fit(graphs, labels)
        assert [other.recommend(g, 1.0) for g in graphs] == forward
        assert len(set(forward)) > 1

    def test_falls_back_when_pool_missing(self, corpus):
        graphs, labels = corpus  # labels use models A/B/C
        selector = RuleSelector(seed=0)
        selector.fit(graphs, labels)
        assert selector.recommend(graphs[0], 1.0) in MODELS


class TestRawKnn:
    def test_nearest_raw_graph_wins(self, corpus):
        graphs, labels = corpus
        selector = RawFeatureKnnSelector(k=1)
        selector.fit(graphs, labels)
        # Recommending a training graph returns its own best model (k=1,
        # distance 0 to itself).
        for g, lab in list(zip(graphs, labels))[:6]:
            assert selector.recommend(g, 1.0) == lab.best_model(1.0)

    def test_handles_larger_target(self, corpus):
        graphs, labels = corpus
        selector = RawFeatureKnnSelector(k=2)
        selector.fit(graphs, labels)
        big = graphs[0].padded(6)
        assert selector.recommend(big, 1.0) in MODELS


TINY_ONLINE = OnlineSelectorConfig(
    sample_fraction=0.5,
    testbed=TestbedConfig(num_train_queries=25, num_test_queries=8,
                          sample_size=200, mscn_epochs=5, lwnn_epochs=5,
                          made_epochs=1, made_hidden=12, made_samples=8))


class TestOnlineSelectors:
    def test_sampling_selector_runs_and_caches(self, small_dataset):
        selector = SamplingSelector(TINY_ONLINE)
        model = selector.recommend_dataset(small_dataset, 1.0)
        assert model in ("BayesCard", "DeepDB", "NeuroCard", "MSCN",
                         "LW-NN", "LW-XGB", "UAE")
        assert small_dataset.name in selector._label_cache
        # Second call with another weight reuses the cached label.
        import time
        start = time.perf_counter()
        selector.recommend_dataset(small_dataset, 0.5)
        assert time.perf_counter() - start < 0.1

    def test_learning_all_selector_runs(self, small_dataset):
        selector = LearningAllSelector(TINY_ONLINE)
        assert selector.recommend_dataset(small_dataset, 0.9) in (
            "BayesCard", "DeepDB", "NeuroCard", "MSCN", "LW-NN", "LW-XGB", "UAE")

    def test_labels_are_the_testbed_of_the_sample_or_of_the_whole(
            self, small_dataset):
        """Sampling labels a subsample and Learning-All the dataset itself;
        both run the same testbed on it.  Latencies are wall-clock, so the
        Q-errors are what must match, byte for byte."""
        sample = subsample_dataset(small_dataset, TINY_ONLINE.sample_fraction,
                                   seed=TINY_ONLINE.seed)
        for selector, data in [(SamplingSelector(TINY_ONLINE), sample),
                               (LearningAllSelector(TINY_ONLINE),
                                small_dataset)]:
            label = selector.label_dataset(small_dataset)
            direct = run_testbed(data, config=TINY_ONLINE.testbed)
            assert label.qerror_means.tobytes() == \
                direct.qerror_means.tobytes(), selector.name

    def test_graph_api_rejected(self, corpus):
        graphs, _ = corpus
        with pytest.raises(TypeError):
            SamplingSelector(TINY_ONLINE).recommend(graphs[0], 1.0)
        with pytest.raises(TypeError):
            LearningAllSelector(TINY_ONLINE).recommend(graphs[0], 1.0)
