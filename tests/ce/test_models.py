"""Integration tests of the nine CE models against shared fixtures.

Each model is fitted on the small multi-table dataset (and the single-table
one where relevant) and must produce positive finite estimates with a sane
mean Q-error — well below what always-guessing-1 would give.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ce import (BayesCard, DeepDB, EnsembleCE, LWNN, LWXGB, MSCN,
                      NeuroCard, PostgresEstimator, UAE, clip_card)
from repro.ce.base import TrainingContext
from repro.ce.registry import CANDIDATE_MODELS
from repro.ce.lwnn import LWNNConfig
from repro.ce.lwxgb import LWXGBConfig
from repro.ce.mscn import MSCNConfig
from repro.ce.neurocard import NeuroCardConfig
from repro.ce.uae import UAEConfig
from repro.testbed.metrics import qerror

FAST_NEURO = NeuroCardConfig(epochs=4, hidden=24, num_samples=32)
FAST_UAE = UAEConfig(epochs=4, hidden=24, num_samples=32)
FAST_MSCN = MSCNConfig(epochs=25)
FAST_LWNN = LWNNConfig(epochs=40)


def fit_and_score(model, ctx):
    model.fit(ctx)
    test = ctx.workload.test
    true = np.array([q.true_cardinality for q in test], dtype=np.float64)
    estimates = model.estimate_batch(test)
    assert np.all(np.isfinite(estimates))
    assert np.all(estimates >= 1.0)
    return float(qerror(estimates, true).mean()), estimates, true


def baseline_qerror(ctx):
    """Q-error of always guessing 1 row."""
    test = ctx.workload.test
    true = np.array([q.true_cardinality for q in test], dtype=np.float64)
    return float(qerror(np.ones_like(true), true).mean())


@pytest.mark.parametrize("factory", [
    lambda: PostgresEstimator(),
    lambda: MSCN(FAST_MSCN),
    lambda: LWNN(FAST_LWNN),
    lambda: LWXGB(LWXGBConfig(n_estimators=15)),
    lambda: DeepDB(),
    lambda: BayesCard(),
    lambda: NeuroCard(FAST_NEURO),
    lambda: UAE(FAST_UAE),
], ids=["Postgres", "MSCN", "LW-NN", "LW-XGB", "DeepDB", "BayesCard",
        "NeuroCard", "UAE"])
def test_model_beats_trivial_baseline(factory, small_ctx):
    q_mean, _, _ = fit_and_score(factory(), small_ctx)
    assert q_mean < baseline_qerror(small_ctx) / 2


class TestDataDrivenSpecifics:
    def test_deepdb_unconstrained_query_returns_join_size(self, small_ctx):
        model = DeepDB()
        model.fit(small_ctx)
        from repro.workload.query import Query
        template = small_ctx.workload.templates[0]
        estimate = model.estimate(Query(tuple(template)))
        exact = small_ctx.samples.template_size(tuple(sorted(template)))
        assert estimate == pytest.approx(exact, rel=0.01)

    def test_bayescard_single_table_accuracy(self, single_ctx):
        q_mean, _, _ = fit_and_score(BayesCard(), single_ctx)
        assert q_mean < 3.0

    def test_neurocard_lazy_template(self, small_ctx, small_dataset):
        model = NeuroCard(FAST_NEURO)
        model.fit(small_ctx)
        from repro.workload.query import Query
        # A template outside the workload: single table not used alone.
        all_templates = set(map(tuple, small_ctx.workload.templates))
        for t in small_dataset.connected_subsets(max_size=1):
            if t not in all_templates:
                estimate = model.estimate(Query(t))
                assert estimate >= 1.0
                return
        pytest.skip("workload covers all single-table templates")

    def test_uae_calibrates_some_template(self, small_ctx):
        model = UAE(FAST_UAE)
        model.fit(small_ctx)
        assert len(model._calibration) >= 1

    @pytest.mark.parametrize("factory", [
        DeepDB, BayesCard, lambda: NeuroCard(FAST_NEURO),
        lambda: UAE(FAST_UAE)], ids=["DeepDB", "BayesCard", "NeuroCard",
                                     "UAE"])
    def test_unfitted_model_raises(self, factory, small_dataset):
        from repro.workload.query import Query
        model = factory()
        template = small_dataset.connected_subsets(max_size=1)[0]
        message = f"{model.name} is not fitted; call fit\\(\\) first"
        with pytest.raises(RuntimeError, match=message):
            model.estimate(Query(template))
        with pytest.raises(RuntimeError, match=message):
            model.prepare_template(template)
        with pytest.raises(RuntimeError, match=message):
            model.prepare_templates([template])

    def test_template_budget_split(self, small_ctx):
        model = DeepDB()
        model.fit(small_ctx)
        budget = model._per_template_budget
        n_templates = len(small_ctx.workload.templates)
        assert budget >= model.MIN_TEMPLATE_SAMPLE
        assert budget <= max(model.MIN_TEMPLATE_SAMPLE,
                             small_ctx.sample_size // max(1, n_templates))


class TestQueryDrivenSpecifics:
    def test_lwnn_inference_is_numpy_fast(self, small_ctx):
        import time
        model = LWNN(FAST_LWNN)
        model.fit(small_ctx)
        query = small_ctx.workload.test[0]
        start = time.perf_counter()
        for _ in range(50):
            model.estimate(query)
        per_query = (time.perf_counter() - start) / 50
        assert per_query < 0.001  # < 1 ms

    def test_mscn_deterministic(self, small_ctx):
        a = MSCN(FAST_MSCN); a.fit(small_ctx)
        b = MSCN(FAST_MSCN); b.fit(small_ctx)
        q = small_ctx.workload.test[0]
        assert a.estimate(q) == pytest.approx(b.estimate(q))


class TestEnsemble:
    def test_weights_sum_to_one(self, small_ctx):
        base = [PostgresEstimator(), LWXGB(LWXGBConfig(n_estimators=5))]
        for m in base:
            m.fit(small_ctx)
        ensemble = EnsembleCE(base)
        ensemble.fit(small_ctx)
        assert ensemble.weights.sum() == pytest.approx(1.0)

    def test_estimate_within_log_hull(self, small_ctx):
        base = [PostgresEstimator(), LWXGB(LWXGBConfig(n_estimators=5))]
        for m in base:
            m.fit(small_ctx)
        ensemble = EnsembleCE(base)
        ensemble.fit(small_ctx)
        q = small_ctx.workload.test[0]
        estimates = [m.estimate(q) for m in base]
        assert min(estimates) * 0.99 <= ensemble.estimate(q) <= max(estimates) * 1.01

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            EnsembleCE([])


class TestClipCard:
    def test_floors_at_one(self):
        assert clip_card(0.001) == 1.0
        assert clip_card(-5) == 1.0

    def test_handles_nan_inf(self):
        assert clip_card(float("nan")) == 1.0
        assert clip_card(float("inf"), upper=10.0) == 10.0

    def test_upper_bound(self):
        assert clip_card(100, upper=50) == 50.0

    @staticmethod
    def numpy_clip_card(value, upper=None):
        """``clip_card`` as written with ``np.isnan``/``np.isfinite``,
        before it switched to the ``math`` spellings."""
        value = float(value)
        if np.isnan(value):
            value = 1.0
        value = max(1.0, value)
        if upper is not None:
            value = min(value, float(upper))
        elif not np.isfinite(value):
            value = 1e30
        return value

    @pytest.mark.parametrize("upper", [None, 50.0])
    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 5e-324,
        0.999, 1.0, 42.5, 1e300, np.float32(np.nan), np.float32(7.25),
        np.float64(np.inf), np.int64(-3), 12])
    def test_matches_the_numpy_spelling_bit_for_bit(self, value, upper):
        got = clip_card(value, upper=upper)
        want = self.numpy_clip_card(value, upper=upper)
        assert type(got) is float
        assert got.hex() == want.hex()


@pytest.fixture(scope="module")
def refit_workloads():
    """Two generated datasets with fast-testbed workloads."""
    from repro.cli import fast_testbed_config
    from repro.datagen.multi_table import generate_dataset
    from repro.datagen.spec import random_spec
    from repro.workload.generator import generate_workload

    testbed = fast_testbed_config(0)
    pairs = []
    for seed in (5, 6):
        dataset = generate_dataset(random_spec(seed))
        pairs.append((dataset, generate_workload(
            dataset, num_train=testbed.num_train_queries,
            num_test=testbed.num_test_queries, seed=testbed.seed)))
    return testbed, pairs


@pytest.mark.parametrize("name", CANDIDATE_MODELS)
def test_refit_equals_fresh_fit(name, refit_workloads):
    """fit(a), a few estimates, then fit(b) answers like a fresh fit(b)."""
    testbed, ((first, first_wl), (second, second_wl)) = refit_workloads

    def ctx(dataset, workload):
        return TrainingContext.build(dataset, workload, seed=testbed.seed,
                                     sample_size=testbed.sample_size)

    refit = testbed.build_candidates()[name]
    refit.fit(ctx(first, first_wl))
    refit.estimate_batch(first_wl.test[:4])
    refit.fit(ctx(second, second_wl))
    fresh = testbed.build_candidates()[name]
    fresh.fit(ctx(second, second_wl))
    queries = second_wl.train + second_wl.test
    assert refit.estimate_batch(queries).tobytes() == \
        fresh.estimate_batch(queries).tobytes()
