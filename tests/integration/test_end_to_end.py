"""End-to-end integration: the full AutoCE story on a miniature corpus.

These are the slowest tests in the suite (a couple of minutes total); they
assert the headline *shape* results of the paper at miniature scale:
AutoCE beats the Rule baseline, matches or beats raw-feature KNN, and the
advisor's picks beat the average fixed model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AutoCE, AutoCEConfig, DMLConfig

# Benchmark-scale: excluded from tier-1, run by CI's `-m slow` job.
pytestmark = pytest.mark.slow
from repro.core.selection_baselines import RuleSelector
from repro.datagen.spec import random_spec
from repro.experiments.corpus import label_one
from repro.testbed.runner import TestbedConfig

TESTBED = TestbedConfig(num_train_queries=60, num_test_queries=15,
                        sample_size=400, mscn_epochs=15, lwnn_epochs=20,
                        made_epochs=2, made_hidden=16, made_samples=16)


@pytest.fixture(scope="module")
def labeled_corpus():
    train = [label_one(random_spec(i), TESTBED) for i in range(14)]
    test = [label_one(random_spec(800 + i), TESTBED) for i in range(6)]
    return train, test


@pytest.fixture(scope="module")
def advisor(labeled_corpus):
    train, _ = labeled_corpus
    a = AutoCE(AutoCEConfig(dml=DMLConfig(epochs=25), seed=0))
    a.fit([e.graph for e in train], [e.label for e in train])
    return a


def mean_d_error(recommend, test, weight):
    return float(np.mean([
        e.label.d_error(recommend(e), weight) for e in test]))


class TestHeadlineShapes:
    def test_autoce_beats_rule(self, labeled_corpus, advisor):
        train, test = labeled_corpus
        rule = RuleSelector(seed=0)
        rule.fit([e.graph for e in train], [e.label for e in train])
        for weight in (1.0, 0.7):
            autoce_err = mean_d_error(
                lambda e, w=weight: advisor.recommend(e.graph, w).model,
                test, weight)
            rule_err = mean_d_error(
                lambda e, w=weight: rule.recommend(e.graph, w), test, weight)
            assert autoce_err <= rule_err + 0.02

    def test_autoce_beats_average_fixed_model(self, labeled_corpus, advisor):
        _, test = labeled_corpus
        weight = 0.9
        autoce_err = mean_d_error(
            lambda e: advisor.recommend(e.graph, weight).model, test, weight)
        fixed_errors = []
        for model in test[0].label.model_names:
            fixed_errors.append(mean_d_error(lambda e, m=model: m, test, weight))
        assert autoce_err <= float(np.mean(fixed_errors))

    def test_recommendations_vary_with_weights(self, labeled_corpus, advisor):
        _, test = labeled_corpus
        picks = {w: [advisor.recommend(e.graph, w).model for e in test]
                 for w in (1.0, 0.1)}
        # Pure-accuracy picks must differ somewhere from pure-speed picks.
        assert picks[1.0] != picks[0.1]

    def test_inference_is_fast(self, labeled_corpus, advisor):
        """Paper: 0.79 s per dataset on their stack — ours is well under."""
        import time
        _, test = labeled_corpus
        start = time.perf_counter()
        for e in test:
            advisor.recommend(e.graph, 0.9)
        per_dataset = (time.perf_counter() - start) / len(test)
        assert per_dataset < 0.5
