"""Precision tiers: float32 advisor end-to-end, serving-tier casts, the
dtype-aware embedding-cache generation (a float32 node must never be served
a stale float64 entry from a shared cache directory), the mixed-tier mode
(low-precision serving over full-precision training weights) and the
``set_dtype`` tier-conflict guard."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.advisor import AutoCE, AutoCEConfig
from repro.core.dml import DMLConfig
from repro.core.graph import FeatureGraph
from repro.core.persistence import load_advisor, save_advisor
from repro.core.serving import ANNConfig, QuantizationConfig
from repro.testbed.scores import DatasetLabel

MODELS = ("A", "B", "C")


def small_corpus(n=24, dim=12, seed=0):
    rng = np.random.default_rng(seed)
    graphs, labels = [], []
    for i in range(n):
        kind = i % 3
        tables = int(rng.integers(1, 4))
        vertices = rng.normal(size=(tables, dim)) * 0.3
        vertices[:, 0] += {0: 2.0, 1: -2.0, 2: 0.0}[kind]
        edges = np.zeros((tables, tables))
        for t in range(1, tables):
            edges[t - 1, t] = 0.5
        graphs.append(FeatureGraph(f"g{i}", vertices, edges))
        qerr = {0: [1.1, 3.0, 6.0], 1: [6.0, 1.1, 3.0],
                2: [3.0, 6.0, 1.1]}[kind]
        labels.append(DatasetLabel(MODELS, qerr, [0.001, 0.002, 0.003]))
    return graphs, labels


def fast_config(**kwargs):
    defaults = dict(hidden_dim=16, embedding_dim=8, use_incremental=False,
                    dml=DMLConfig(epochs=3, batch_size=8), seed=0)
    defaults.update(kwargs)
    return AutoCEConfig(**defaults)


@pytest.fixture(scope="module")
def corpus():
    return small_corpus()


class TestFloat32Training:
    def test_float32_fit_serves_float32(self, corpus):
        graphs, labels = corpus
        advisor = AutoCE(fast_config(dtype="float32"))
        advisor.fit(graphs, labels)
        assert advisor.encoder.dtype == np.float32
        assert advisor.rcs.embeddings.dtype == np.float32
        assert advisor.embed(graphs[0]).dtype == np.float32
        assert advisor.recommend(graphs[0], 0.9).model in MODELS

    def test_recommendations_agree_across_tiers(self, corpus):
        graphs, labels = corpus
        models = {}
        for dtype in ("float64", "float32"):
            advisor = AutoCE(fast_config(dtype=dtype))
            advisor.fit(graphs, labels)
            models[dtype] = [r.model
                             for r in advisor.recommend_batch(graphs, 0.9)]
        agreement = np.mean([a == b for a, b in zip(models["float64"],
                                                    models["float32"])])
        assert agreement >= 0.99

    def test_set_dtype_downcasts_fitted_advisor(self, corpus):
        graphs, labels = corpus
        advisor = AutoCE(fast_config())
        advisor.fit(graphs, labels)
        reference = [r.model for r in advisor.recommend_batch(graphs, 0.9)]
        advisor.set_dtype("float32")
        assert advisor.encoder.dtype == np.float32
        assert advisor.rcs.embeddings.dtype == np.float32
        downcast = [r.model for r in advisor.recommend_batch(graphs, 0.9)]
        agreement = np.mean([a == b for a, b in zip(reference, downcast)])
        assert agreement >= 0.99

    def test_set_dtype_rejects_unknown_tier(self, corpus):
        advisor = AutoCE(fast_config())
        with pytest.raises(ValueError):
            advisor.set_dtype("float16")


class TestSetDtypeTierConflict:
    """Regression: ``set_dtype`` must *raise* on an upcast whose mantissa
    bits are gone — not silently zero-pad float32 weights into a float64
    advisor that looks (and stamps cache generations) like the real one."""

    def test_upcasting_a_float32_trained_advisor_raises(self, corpus):
        graphs, labels = corpus
        advisor = AutoCE(fast_config(dtype="float32"))
        advisor.fit(graphs, labels)
        with pytest.raises(ValueError, match="unrecoverable"):
            advisor.set_dtype("float64")
        # The failed cast must leave the advisor untouched and serving.
        assert advisor.encoder.dtype == np.float32
        assert advisor.config.dtype == "float32"
        assert advisor.recommend(graphs[0], 0.9).model in MODELS

    def test_upcasting_a_reloaded_float32_advisor_raises(self, corpus,
                                                         tmp_path):
        graphs, labels = corpus
        advisor = AutoCE(fast_config(dtype="float32"))
        advisor.fit(graphs, labels)
        save_advisor(advisor, str(tmp_path / "advisor32.npz"))
        node = load_advisor(str(tmp_path / "advisor32.npz"))
        # The persistence metadata says float32; a float64 request conflicts.
        with pytest.raises(ValueError, match="float32"):
            node.set_dtype("float64")

    def test_error_points_at_the_mixed_tier_mode(self, corpus):
        graphs, labels = corpus
        advisor = AutoCE(fast_config(dtype="float32"))
        advisor.fit(graphs, labels)
        with pytest.raises(ValueError, match="serving_dtype"):
            advisor.set_dtype("float64")

    def test_downcast_then_upcast_round_trip_is_refused(self, corpus):
        graphs, labels = corpus
        advisor = AutoCE(fast_config())
        advisor.fit(graphs, labels)
        advisor.set_dtype("float32")
        with pytest.raises(ValueError):
            advisor.set_dtype("float64")

    def test_unfitted_advisor_may_still_choose_any_tier(self):
        advisor = AutoCE(fast_config(dtype="float32"))
        advisor.set_dtype("float64")
        assert advisor.config.dtype == "float64"


class TestMixedTierServing:
    """``serving_dtype``: float32 serving embeddings over float64 weights,
    optionally with the int8 candidate tier — no destructive downcast."""

    def test_serving_tier_is_independent_of_the_training_tier(self, corpus):
        graphs, labels = corpus
        advisor = AutoCE(fast_config(serving_dtype="float32"))
        advisor.fit(graphs, labels)
        assert advisor.encoder.dtype == np.float64       # weights untouched
        assert advisor.rcs.embeddings.dtype == np.float32
        assert advisor.embed(graphs[0]).dtype == np.float32

    def test_mixed_tier_recommendations_agree_with_float64(self, corpus):
        graphs, labels = corpus
        reference = AutoCE(fast_config())
        reference.fit(graphs, labels)
        expected = [r.model for r in reference.recommend_batch(graphs, 0.9)]
        mixed = AutoCE(fast_config(
            serving_dtype="float32",
            ann=ANNConfig(threshold=8),
            quantization=QuantizationConfig(overfetch=4)))
        mixed.fit(graphs, labels)
        assert mixed.rcs.index is not None
        served = [r.model for r in mixed.recommend_batch(graphs, 0.9)]
        agreement = np.mean([a == b for a, b in zip(expected, served)])
        assert agreement >= 0.99

    def test_reasserting_the_active_serving_tier_is_a_no_op(self, corpus,
                                                            tmp_path):
        """`repro serve --serving-dtype float32` on an advisor *saved* at
        that serving tier must not re-embed the corpus: the reloaded RCS
        rows are the warm start persistence exists to provide."""
        graphs, labels = corpus
        advisor = AutoCE(fast_config(serving_dtype="float32"))
        advisor.fit(graphs, labels)
        save_advisor(advisor, str(tmp_path / "advisor.npz"))
        node = load_advisor(str(tmp_path / "advisor.npz"))
        rcs_before = node.rcs
        forwards = {"n": 0}
        original_embed = node.encoder.embed
        node.encoder.embed = lambda batch: (
            forwards.__setitem__("n", forwards["n"] + 1)
            or original_embed(batch))
        node.set_serving_dtype("float32")
        assert forwards["n"] == 0
        assert node.rcs is rcs_before
        # ...and declaring the training tier explicitly is equally free.
        plain = AutoCE(fast_config())
        plain.fit(graphs, labels)
        rcs_before = plain.rcs
        plain.set_serving_dtype("float64")
        assert plain.rcs is rcs_before

    def test_set_serving_dtype_is_reversible(self, corpus):
        graphs, labels = corpus
        advisor = AutoCE(fast_config())
        advisor.fit(graphs, labels)
        expected = [r.model for r in advisor.recommend_batch(graphs, 0.9)]
        advisor.set_serving_dtype("float32")
        assert advisor.rcs.embeddings.dtype == np.float32
        advisor.set_serving_dtype(None)
        # Leaving the mixed-tier mode re-derives the RCS from the untouched
        # float64 weights: bit-identical serving, unlike a set_dtype round
        # trip (which is refused precisely because it cannot restore this).
        assert advisor.rcs.embeddings.dtype == np.float64
        restored = [r.model for r in advisor.recommend_batch(graphs, 0.9)]
        assert restored == expected

    def test_generation_folds_the_serving_tier(self, corpus):
        graphs, labels = corpus
        advisor = AutoCE(fast_config())
        advisor.fit(graphs, labels)
        plain = advisor.embedding_generation()
        advisor.set_serving_dtype("float32")
        assert advisor.embedding_generation() != plain

    def test_mixed_tier_node_never_serves_stale_float64_cache_entries(
            self, corpus, tmp_path):
        graphs, labels = corpus
        cache_dir = str(tmp_path / "emb-cache")
        advisor = AutoCE(fast_config(embedding_cache_dir=cache_dir))
        advisor.fit(graphs, labels)
        advisor.recommend_batch(graphs, 0.9)     # float64-tier disk entries
        save_advisor(advisor, str(tmp_path / "advisor.npz"))
        del advisor

        node = load_advisor(str(tmp_path / "advisor.npz"))
        node.config.embedding_cache_dir = cache_dir
        node.set_serving_dtype("float32")
        embeddings = np.stack([node.embed(g) for g in graphs])
        assert embeddings.dtype == np.float32
        assert node.embedding_cache.disk_hits == 0

    def test_adapt_online_stays_on_the_serving_tier(self, corpus):
        """Online adapting re-embeds at the training tier; a mixed-tier
        node must come back to the serving tier with its int8 codes
        requantized for the post-adaptation geometry."""
        graphs, labels = corpus
        advisor = AutoCE(fast_config(
            serving_dtype="float32",
            ann=ANNConfig(threshold=8),
            quantization=QuantizationConfig(overfetch=4)))
        advisor.fit(graphs, labels)
        fresh = FeatureGraph("drifted",
                             np.full((2, 12), 9.0), np.zeros((2, 2)))
        advisor.adapt_online(fresh, labels[0], update_epochs=1)
        assert advisor.encoder.dtype == np.float64
        assert advisor.rcs.embeddings.dtype == np.float32
        assert advisor.rcs.index is not None
        assert len(advisor.rcs.index) == len(advisor.rcs)
        assert advisor.recommend(graphs[0], 0.9).model in MODELS

    def test_quantized_store_round_trips_through_persistence(self, corpus,
                                                             tmp_path):
        graphs, labels = corpus
        advisor = AutoCE(fast_config(
            serving_dtype="float32",
            ann=ANNConfig(threshold=8),
            quantization=QuantizationConfig(overfetch=4)))
        advisor.fit(graphs, labels)
        before = [r.model for r in advisor.recommend_batch(graphs, 0.9)]
        save_advisor(advisor, str(tmp_path / "advisor.npz"))
        node = load_advisor(str(tmp_path / "advisor.npz"))
        assert node.config.serving_dtype == "float32"
        assert node.rcs.embeddings.dtype == np.float32
        assert node.rcs.index is not None
        np.testing.assert_array_equal(node.rcs.index.codes.shape,
                                      (len(graphs),
                                       node.encoder.embedding_dim))
        after = [r.model for r in node.recommend_batch(graphs, 0.9)]
        assert before == after


class TestGenerationFoldsDtype:
    def test_generation_differs_across_tiers(self, corpus):
        graphs, labels = corpus
        advisor = AutoCE(fast_config())
        advisor.fit(graphs, labels)
        g64 = advisor.embedding_generation()
        advisor.set_dtype("float32")
        g32 = advisor.embedding_generation()
        assert g64 != g32

    def test_set_dtype_clears_in_memory_cache(self, corpus):
        graphs, labels = corpus
        advisor = AutoCE(fast_config())
        advisor.fit(graphs, labels)
        advisor.recommend(graphs[0], 0.9)
        assert len(advisor.embedding_cache) > 0
        advisor.set_dtype("float32")
        assert len(advisor.embedding_cache) == 0


class TestPersistentCacheDtypeRegression:
    """A dtype switch must invalidate persistent entries exactly like an
    encoder-weight change (the FeatureGraph fingerprint — the cache key —
    is dtype-independent, so only the generation stamp separates tiers)."""

    def test_float32_node_never_served_stale_float64_entries(
            self, corpus, tmp_path):
        graphs, labels = corpus
        cache_dir = str(tmp_path / "emb-cache")
        advisor = AutoCE(fast_config(embedding_cache_dir=cache_dir))
        advisor.fit(graphs, labels)
        advisor.recommend_batch(graphs, 0.9)   # populate the disk tier
        save_advisor(advisor, str(tmp_path / "advisor.npz"))
        del advisor

        # A restarted node on the same cache directory, now serving the
        # float32 tier: every embedding must be recomputed at float32, not
        # promoted from the float64 generation on disk.
        node = load_advisor(str(tmp_path / "advisor.npz"))
        node.config.embedding_cache_dir = cache_dir
        node.set_dtype("float32")
        embeddings = np.stack([node.embed(g) for g in graphs])
        assert embeddings.dtype == np.float32
        cache = node.embedding_cache
        assert cache.disk_hits == 0
        fresh = node.encoder.embed(graphs)
        np.testing.assert_array_equal(embeddings, fresh)

    def test_same_tier_restart_still_warm_starts(self, corpus, tmp_path):
        """The dtype fold must not break the PR 2 warm-start contract."""
        graphs, labels = corpus
        cache_dir = str(tmp_path / "emb-cache")
        advisor = AutoCE(fast_config(embedding_cache_dir=cache_dir))
        advisor.fit(graphs, labels)
        advisor.recommend_batch(graphs, 0.9)
        save_advisor(advisor, str(tmp_path / "advisor.npz"))
        del advisor

        node = load_advisor(str(tmp_path / "advisor.npz"))
        node.config.embedding_cache_dir = cache_dir
        node.recommend_batch(graphs, 0.9)
        assert node.embedding_cache.disk_hits == len(graphs)


class TestPersistenceRoundTrip:
    def test_float32_advisor_round_trips(self, corpus, tmp_path):
        graphs, labels = corpus
        advisor = AutoCE(fast_config(dtype="float32"))
        advisor.fit(graphs, labels)
        before = [r.model for r in advisor.recommend_batch(graphs, 0.9)]
        save_advisor(advisor, str(tmp_path / "advisor32.npz"))
        reloaded = load_advisor(str(tmp_path / "advisor32.npz"))
        assert reloaded.config.dtype == "float32"
        assert reloaded.encoder.dtype == np.float32
        assert reloaded.rcs.embeddings.dtype == np.float32
        after = [r.model for r in reloaded.recommend_batch(graphs, 0.9)]
        assert before == after
