"""Metrics, score normalization, D-error and the testbed runner."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.testbed import (DatasetLabel, ScoreLabel, TestbedConfig,
                           WEIGHT_GRID, minmax_scores, qerror, run_testbed)


class TestQError:
    def test_exact_is_one(self):
        assert qerror(100, 100) == 1.0

    def test_symmetric(self):
        assert qerror(10, 1000) == qerror(1000, 10)

    def test_floor_at_one_row(self):
        assert qerror(0.2, 0) == 1.0

    @settings(max_examples=30, deadline=None)
    @given(est=st.floats(0.0, 1e9), true=st.floats(0.0, 1e9))
    def test_always_at_least_one(self, est, true):
        assert qerror(est, true) >= 1.0

    def test_vectorized(self):
        out = qerror(np.array([1, 10]), np.array([10, 1]))
        np.testing.assert_allclose(out, [10, 10])


class TestMinMax:
    def test_best_gets_one_worst_gets_zero(self):
        scores = minmax_scores(np.array([1.0, 3.0, 5.0]))
        np.testing.assert_allclose(scores, [1.0, 0.5, 0.0])

    def test_degenerate_all_equal(self):
        np.testing.assert_allclose(minmax_scores(np.array([2.0, 2.0])), [1, 1])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.1, 100.0), min_size=2, max_size=8))
    def test_bounds(self, values):
        scores = minmax_scores(np.array(values))
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)


def make_label():
    return DatasetLabel(
        model_names=("A", "B", "C"),
        qerror_means=[1.2, 2.0, 10.0],
        latency_means=[0.010, 0.001, 0.003],
    )


class TestDatasetLabel:
    def test_accuracy_order(self):
        label = make_label()
        sa = label.accuracy_scores()
        assert sa[0] > sa[1] > sa[2]

    def test_efficiency_order(self):
        label = make_label()
        se = label.efficiency_scores()
        assert se[1] > se[2] > se[0]

    def test_score_vector_weighting(self):
        label = make_label()
        np.testing.assert_allclose(label.score_vector(1.0),
                                   np.maximum(label.accuracy_scores(), 1e-3))
        np.testing.assert_allclose(label.score_vector(0.0),
                                   np.maximum(label.efficiency_scores(), 1e-3))

    def test_best_model_flips_with_weight(self):
        label = make_label()
        assert label.best_model(1.0) == "A"
        assert label.best_model(0.0) == "B"

    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError):
            make_label().score_vector(1.5)

    def test_d_error_zero_for_best(self):
        label = make_label()
        assert label.d_error(label.best_model(0.7), 0.7) == 0.0

    def test_d_error_positive_and_clipped(self):
        label = make_label()
        worst = label.model_names[int(np.argmin(label.score_vector(1.0)))]
        assert label.d_error(worst, 1.0) == 1.0  # clipped
        assert label.d_error(worst, 1.0, clip=None) > 1.0

    def test_label_matrix_shape(self):
        assert make_label().label_matrix().shape == (len(WEIGHT_GRID), 3)

    def test_subset_renormalizes(self):
        label = make_label()
        sub = label.subset(["A", "B"])
        # Within {A, B}: A best accuracy (score 1), B worst (score 0→floor).
        np.testing.assert_allclose(
            sub.accuracy_scores(), [1.0, 0.0])
        assert sub.model_names == ("A", "B")

    def test_mix_with_midpoint(self):
        label = make_label()
        mixed = label.mix_with(label.subset(["A", "B", "C"]), 0.5)
        np.testing.assert_allclose(mixed.sa, label.sa)

    def test_mix_requires_same_models(self):
        label = make_label()
        with pytest.raises(ValueError):
            label.mix_with(label.subset(["A", "B"]), 0.5)

    def test_mix_convexity(self):
        a = make_label()
        b = DatasetLabel(("A", "B", "C"), [5.0, 1.1, 2.0],
                         [0.001, 0.002, 0.004])
        for lam in (0.0, 0.3, 1.0):
            mixed = a.mix_with(b, lam)
            np.testing.assert_allclose(
                mixed.sa, lam * a.sa + (1 - lam) * b.sa)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ScoreLabel(("A",), np.array([1.0, 2.0]), np.array([1.0]))


TINY = TestbedConfig(num_train_queries=30, num_test_queries=10,
                     sample_size=300, mscn_epochs=8, lwnn_epochs=10,
                     made_epochs=2, made_hidden=16, made_samples=16)


class TestRunner:
    def test_labels_all_candidates(self, small_dataset):
        label = run_testbed(small_dataset, config=TINY)
        assert len(label.model_names) == 7
        assert np.all(label.qerror_means >= 1.0)
        assert np.all(label.latency_means > 0.0)

    def test_include_baselines_appends_two(self, small_dataset):
        config = TestbedConfig(**{**vars(TINY), "include_baselines": True})
        label = run_testbed(small_dataset, config=config)
        assert label.model_names[-2:] == ("Postgres", "Ensemble")
        assert len(label.model_names) == 9

    def test_model_subset(self, small_dataset):
        label = run_testbed(small_dataset, config=TINY,
                            model_names=["MSCN", "LW-NN"])
        assert label.model_names == ("MSCN", "LW-NN")

    def test_unknown_model_rejected(self, small_dataset):
        with pytest.raises(KeyError):
            run_testbed(small_dataset, config=TINY, model_names=["Nope"])
