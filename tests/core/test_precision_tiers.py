"""Precision tiers: float32 advisor end-to-end, ``set_dtype`` casts (with
the int8 candidate tier and through persistence), the embedding cache
across a tier switch, and the ``set_dtype`` tier-conflict guard."""

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

    def test_set_dtype_clears_in_memory_cache(self, corpus):
        graphs, labels = corpus
        advisor = AutoCE(fast_config())
        advisor.fit(graphs, labels)
        advisor.recommend(graphs[0], 0.9)
        assert len(advisor.embedding_cache) > 0
        advisor.set_dtype("float32")
        assert len(advisor.embedding_cache) == 0


class TestSetDtypeTierConflict:
    """Regression: ``set_dtype`` must *raise* on an upcast whose mantissa
    bits are gone — not silently zero-pad float32 weights into a float64
    advisor that looks like the real one."""

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


class TestFloat32WithInt8Candidates:
    """``dtype="float32"`` serving from the int8 candidate tier."""

    def int8_config(self):
        return fast_config(dtype="float32", ann=ANNConfig(threshold=8),
                           quantization=QuantizationConfig(overfetch=4))

    def test_recommendations_agree_with_float64(self, corpus):
        graphs, labels = corpus
        reference = AutoCE(fast_config())
        reference.fit(graphs, labels)
        expected = [r.model for r in reference.recommend_batch(graphs, 0.9)]
        fast = AutoCE(self.int8_config())
        fast.fit(graphs, labels)
        assert fast.rcs.index is not None
        served = [r.model for r in fast.recommend_batch(graphs, 0.9)]
        agreement = np.mean([a == b for a, b in zip(expected, served)])
        assert agreement >= 0.99

    def test_reasserting_the_active_tier_is_a_no_op(self, corpus, tmp_path):
        """`repro serve --dtype float32` on an advisor *saved* at that tier
        must not re-embed the corpus: the reloaded RCS rows are the warm
        start persistence exists to provide."""
        graphs, labels = corpus
        advisor = AutoCE(self.int8_config())
        advisor.fit(graphs, labels)
        save_advisor(advisor, str(tmp_path / "advisor.npz"))
        node = load_advisor(str(tmp_path / "advisor.npz"))
        rcs_before = node.rcs
        forwards = {"n": 0}
        original_embed = node.encoder.embed
        node.encoder.embed = lambda batch: (
            forwards.__setitem__("n", forwards["n"] + 1)
            or original_embed(batch))
        node.set_dtype("float32")
        assert forwards["n"] == 0
        assert node.rcs is rcs_before

    def test_adapt_online_stays_on_the_float32_tier(self, corpus):
        """Online adapting re-embeds the corpus; the RCS must stay float32
        with its int8 codes requantized for the post-adaptation geometry."""
        graphs, labels = corpus
        advisor = AutoCE(self.int8_config())
        advisor.fit(graphs, labels)
        fresh = FeatureGraph("drifted",
                             np.full((2, 12), 9.0), np.zeros((2, 2)))
        advisor.adapt_online(fresh, labels[0], update_epochs=1)
        assert advisor.encoder.dtype == np.float32
        assert advisor.rcs.embeddings.dtype == np.float32
        assert advisor.rcs.index is not None
        assert len(advisor.rcs.index) == len(advisor.rcs)
        assert advisor.recommend(graphs[0], 0.9).model in MODELS

    def test_quantized_store_round_trips_through_persistence(self, corpus,
                                                             tmp_path):
        graphs, labels = corpus
        advisor = AutoCE(self.int8_config())
        advisor.fit(graphs, labels)
        before = [r.model for r in advisor.recommend_batch(graphs, 0.9)]
        save_advisor(advisor, str(tmp_path / "advisor.npz"))
        node = load_advisor(str(tmp_path / "advisor.npz"))
        assert node.config.dtype == "float32"
        assert node.rcs.embeddings.dtype == np.float32
        assert node.rcs.index is not None
        np.testing.assert_array_equal(node.rcs.index.codes.shape,
                                      (len(graphs),
                                       node.encoder.embedding_dim))
        after = [r.model for r in node.recommend_batch(graphs, 0.9)]
        assert before == after


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
