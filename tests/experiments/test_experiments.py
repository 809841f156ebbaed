"""Corpus construction, caching, and a smoke pass of the cheap drivers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen.spec import random_spec
from repro.experiments.common import ExperimentSuite, format_table
from repro.experiments.corpus import (CorpusConfig, build_corpus, env_int,
                                      label_one)
from repro.testbed.runner import TestbedConfig
from repro.utils.cache import DiskCache, stable_hash

TINY_TESTBED = TestbedConfig(num_train_queries=25, num_test_queries=8,
                             sample_size=200, mscn_epochs=5, lwnn_epochs=5,
                             made_epochs=1, made_hidden=12, made_samples=8)


class TestUtils:
    def test_stable_hash_deterministic(self):
        assert stable_hash({"a": 1}) == stable_hash({"a": 1})
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})

    def test_disk_cache_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("k", {"x": np.arange(3)})
        out = cache.get("k")
        np.testing.assert_array_equal(out["x"], np.arange(3))
        assert "k" in cache
        assert cache.get("missing", 42) == 42

    def test_get_or_compute_runs_once(self, tmp_path):
        cache = DiskCache(tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return 7

        assert cache.get_or_compute("k", compute) == 7
        assert cache.get_or_compute("k", compute) == 7
        assert len(calls) == 1

    def test_env_int(self, monkeypatch):
        monkeypatch.setenv("REPRO_X", "13")
        assert env_int("REPRO_X", 5) == 13
        assert env_int("REPRO_MISSING", 5) == 5

    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 3]], title="T")
        assert "T" in text and "2.5" in text and "x" in text

    def test_improvements_zero_baseline_is_nan(self):
        from repro.experiments.table5_e2e import (_format_improvement,
                                                  improvements)
        totals = {"single-table": {"PostgreSQL": (0.0, 0.0),
                                   "TrueCard": (1.0, 0.0)},
                  "multi-table": {"PostgreSQL": (2.0, 2.0),
                                  "TrueCard": (1.0, 1.0)}}
        out = improvements(totals)
        assert np.isnan(out["single-table"]["TrueCard"])
        assert np.isnan(out["single-table"]["PostgreSQL"])
        assert out["multi-table"]["TrueCard"] == pytest.approx(0.5)
        assert _format_improvement(out["single-table"]["TrueCard"]) == "n/a"
        assert _format_improvement(out["multi-table"]["TrueCard"]) == "+50.0%"


class TestCorpus:
    def test_label_one(self):
        entry = label_one(random_spec(1), TINY_TESTBED)
        assert entry.graph.num_tables == entry.dataset().num_tables
        assert len(entry.label.model_names) == 7

    def test_build_corpus_cached(self, tmp_path):
        config = CorpusConfig(num_datasets=2, testbed=TINY_TESTBED)
        first = build_corpus(config, cache_dir=tmp_path)
        second = build_corpus(config, cache_dir=tmp_path)
        assert len(first) == 2
        np.testing.assert_array_equal(first[0].label.qerror_means,
                                      second[0].label.qerror_means)

    def test_cache_key_sensitive_to_config(self):
        a = CorpusConfig(num_datasets=2, testbed=TINY_TESTBED)
        b = CorpusConfig(num_datasets=3, testbed=TINY_TESTBED)
        assert a.cache_key() != b.cache_key()

    def test_entry_dataset_regenerates(self):
        entry = label_one(random_spec(2), TINY_TESTBED)
        d1 = entry.dataset()
        d2 = entry.dataset()
        first = d1[d1.table_names[0]].data_columns()[0]
        np.testing.assert_array_equal(d1[d1.table_names[0]][first],
                                      d2[d2.table_names[0]][first])


@pytest.fixture(scope="module")
def tiny_suite(tmp_path_factory):
    suite = ExperimentSuite(num_train=8, num_test=4,
                            cache_dir=str(tmp_path_factory.mktemp("cache")))
    suite.testbed = TINY_TESTBED
    return suite


@pytest.mark.slow
class TestSuite:
    def test_train_corpus_size(self, tiny_suite):
        assert len(tiny_suite.train_corpus()) == 8

    def test_autoce_fits_and_recommends(self, tiny_suite):
        advisor = tiny_suite.autoce()
        graphs, labels = tiny_suite.test_graphs_and_labels()
        rec = advisor.recommend(graphs[0], 0.9)
        assert rec.model in labels[0].model_names

    def test_test_corpus_has_baselines(self, tiny_suite):
        entries = tiny_suite.test_corpus()
        assert entries[0].label.model_names[-2:] == ("Postgres", "Ensemble")

    def test_baseline_selectors(self, tiny_suite):
        graphs, labels = tiny_suite.test_graphs_and_labels()
        for name in ("MLP", "Rule", "Knn", "Without-DML"):
            selector = tiny_suite.baseline(name)
            assert selector.recommend(graphs[0], 0.9) in labels[0].model_names

    def test_memoization(self, tiny_suite):
        assert tiny_suite.autoce() is tiny_suite.autoce()


@pytest.mark.slow
class TestDriverSmoke:
    def test_table4_knn_k(self, tiny_suite):
        from repro.experiments import table4_knn_k
        result = table4_knn_k.run(tiny_suite)
        assert set(result.d_error) == {1.0, 0.9, 0.7, 0.5}
        assert "k=2" in result.text

    def test_fig7_loss_ablation(self, tiny_suite):
        from repro.experiments import fig7_loss_ablation
        result = fig7_loss_ablation.run(tiny_suite)
        assert set(result.weighted) == {0.9, 0.7, 0.5}
        assert "Figure 7" in result.text

    def test_fig9_ce_baselines(self, tiny_suite):
        from repro.experiments import fig9_ce_baselines
        result = fig9_ce_baselines.run(tiny_suite, weights=(1.0, 0.5))
        assert "AutoCE" in result.mean_d_error
        assert "Postgres" in result.mean_d_error

    def test_table1(self, tiny_suite):
        from repro.experiments import table1_datasets
        result = table1_datasets.run(tiny_suite, num_synthetic_probe=2)
        assert "imdb_light" in result.text
