"""Scale-out serving: the embedding cache, parallel featurization, the
int8 tier's size rule, and drift-detector degenerate cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.advisor import AutoCE, AutoCEConfig
from repro.core.dml import DMLConfig
from repro.core.graph import FeatureGraph
from repro.core.online import DriftDetector
from repro.core.serving import (ANNConfig, KNNPredictor, QuantizationConfig,
                                QuantizedStore, RecommendationCandidateSet,
                                exact_search, serves_int8)
from repro.datagen.multi_table import generate_dataset
from repro.datagen.spec import random_spec
from repro.testbed.scores import DatasetLabel

MODELS = ("A", "B", "C")


def tiny_corpus(n=16, dim=10, seed=3):
    rng = np.random.default_rng(seed)
    graphs, labels = [], []
    for i in range(n):
        tables = int(rng.integers(1, 4))
        vertices = rng.normal(size=(tables, dim)) * 0.3
        vertices[:, 0] += float(i % 3)
        edges = np.zeros((tables, tables))
        for t in range(1, tables):
            edges[t - 1, t] = 0.4
        graphs.append(FeatureGraph(f"g{i}", vertices, edges))
        labels.append(DatasetLabel(MODELS, rng.uniform(1, 9, 3),
                                   rng.uniform(0.001, 0.01, 3)))
    return graphs, labels


def fast_config(**overrides):
    base = dict(hidden_dim=16, embedding_dim=8, use_incremental=False,
                dml=DMLConfig(epochs=4, batch_size=8, seed=0), seed=0)
    base.update(overrides)
    return AutoCEConfig(**base)


class TestEmbeddingCache:
    def test_retraining_clears_the_cache(self):
        graphs, labels = tiny_corpus()
        advisor = AutoCE(fast_config())
        advisor.fit_graphs(graphs, labels)
        advisor.recommend(graphs[0], 0.9)
        advisor.adapt_online(graphs[1], labels[1], update_epochs=1)
        # The old entry must not be served under the new encoder.
        forwards = []
        original = advisor.encoder.embed
        advisor.encoder.embed = lambda batch: forwards.append(len(batch)) or original(batch)
        advisor.recommend(graphs[0], 0.9)
        assert forwards == [1]

    def test_repeat_lookup_hits_the_in_memory_cache(self):
        graphs, labels = tiny_corpus()
        advisor = AutoCE(fast_config())
        advisor.fit_graphs(graphs, labels)
        advisor.recommend(graphs[0], 0.9)
        advisor.recommend(graphs[0], 0.9)
        assert advisor.embedding_cache.hits == 1


class TestPerCallK:
    @pytest.mark.parametrize("k", [0, -1])
    def test_non_positive_k_is_rejected(self, k):
        graphs, labels = tiny_corpus(4)
        advisor = AutoCE(fast_config()).fit_graphs(graphs, labels)
        with pytest.raises(ValueError, match="k must be positive"):
            advisor.recommend(graphs[0], 0.9, k=k)
        with pytest.raises(ValueError, match="k must be positive"):
            advisor.recommend_batch(graphs[:2], 0.9, k=k)


class TestParallelFeaturize:
    def test_threaded_featurization_matches_serial(self):
        datasets = [generate_dataset(random_spec(100 + i,
                                                 ranges={"num_tables": (1, 3)}))
                    for i in range(6)]
        serial = AutoCE(AutoCEConfig(featurize_workers=1))
        threaded = AutoCE(AutoCEConfig(featurize_workers=4))
        graphs_s = serial.featurize_many(datasets)
        graphs_t = threaded.featurize_many(datasets)
        for a, b in zip(graphs_s, graphs_t):
            assert a.name == b.name
            np.testing.assert_array_equal(a.vertices, b.vertices)
            np.testing.assert_array_equal(a.edges, b.edges)

    def test_prebuilt_graphs_pass_through(self):
        graphs, _ = tiny_corpus(4)
        advisor = AutoCE(AutoCEConfig(featurize_workers=4))
        assert advisor.featurize_many(graphs) == graphs

    def test_worker_auto_mode(self):
        advisor = AutoCE(AutoCEConfig(featurize_workers=0))
        datasets = [generate_dataset(random_spec(7, ranges={"num_tables": (1, 2)}))
                    for _ in range(2)]
        graphs = advisor.featurize_many(datasets)
        assert all(isinstance(g, FeatureGraph) for g in graphs)


class TestAdvisorANNSelection:
    def test_rcs_carries_advisor_ann_config(self):
        graphs, labels = tiny_corpus()
        ann = ANNConfig(threshold=8)
        advisor = AutoCE(fast_config(ann=ann))
        advisor.fit_graphs(graphs, labels)
        assert advisor.rcs.ann_config is ann
        assert isinstance(advisor.rcs.index, QuantizedStore)  # 16 >= 8
        rec = advisor.recommend(graphs[0], 0.9)
        assert rec.model in MODELS

    def test_default_threshold_keeps_small_corpora_exact(self):
        graphs, labels = tiny_corpus()
        advisor = AutoCE(fast_config())
        advisor.fit_graphs(graphs, labels)
        assert advisor.rcs.index is None


class TestTierSizeRule:
    """One size rule picks the tier: the exact scan below
    ``ANNConfig.threshold`` members, the int8 store from it up."""

    THRESHOLD = 64

    def corpus(self, n):
        rng = np.random.default_rng(11)
        label = DatasetLabel(MODELS, [1, 2, 3], [0.1, 0.2, 0.3])
        return rng.normal(size=(n, 8)), [label] * n

    def test_one_below_the_threshold_serves_the_exact_scan(self):
        emb, labels = self.corpus(self.THRESHOLD - 1)
        rcs = RecommendationCandidateSet(
            emb, labels, ann=ANNConfig(threshold=self.THRESHOLD))
        assert rcs.index is None
        queries = emb[:5] + 0.01
        for got, want in zip(rcs.search(queries, 3),
                             exact_search(queries, emb, 3)):
            np.testing.assert_array_equal(got, want)

    def test_add_at_the_threshold_attaches_and_replace_recalibrates(self):
        emb, labels = self.corpus(self.THRESHOLD)
        rcs = RecommendationCandidateSet(
            emb[:-1], labels[:-1], ann=ANNConfig(threshold=self.THRESHOLD))
        rcs.add(emb[-1], labels[-1])
        store = rcs.index
        assert isinstance(store, QuantizedStore)
        assert len(store) == self.THRESHOLD
        np.testing.assert_array_equal(store.codes, store.quantize(emb))
        scaled = emb * 3.0
        rcs.replace_embeddings(scaled)
        assert rcs.index is store                  # same store, new codes
        np.testing.assert_array_equal(store.codes, store.quantize(scaled))
        assert store.scale == pytest.approx(
            QuantizedStore(scaled).scale, rel=1e-12)

    def test_shard_slice_at_the_threshold_starts_at_int8(self):
        from repro.serving import ShardRuntime, ShardSpec

        emb, _ = self.corpus(self.THRESHOLD)
        ann = ANNConfig(threshold=self.THRESHOLD)
        runtime = ShardRuntime(ShardSpec(
            shard_id=0, global_ids=np.arange(self.THRESHOLD),
            embeddings=emb, ann=ann))
        assert runtime.ladder == ("int8", "exact")
        assert runtime.breaker.tier == "int8"
        below = ShardRuntime(ShardSpec(
            shard_id=0, global_ids=np.arange(self.THRESHOLD - 1),
            embeddings=emb[:-1], ann=ann))
        assert below.ladder == ("exact",)

    @pytest.mark.parametrize("size, threshold, expected", [
        (0, None, False),
        (10 ** 6, None, False),
        (0, 0, False),
        (10 ** 6, 0, False),
        (100, -1, False),
        (0, 1, False),
        (1, 1, True),
        (4095, 4096, False),
        (4096, 4096, True),
        (65536, 4096, True),
    ])
    def test_serves_int8_rule(self, size, threshold, expected):
        ann = None if threshold is None else ANNConfig(threshold=threshold)
        assert serves_int8(size, ann) is expected

    def test_default_threshold_is_4096(self):
        """The size E2LSH used to attach at, so every corpus that served
        the exact scan before still does."""
        assert ANNConfig().threshold == 4096
        assert not serves_int8(4095, ANNConfig())
        assert serves_int8(4096, ANNConfig())

    @pytest.mark.parametrize("threshold", [1, 2, 5, 16])
    def test_growing_rcs_attaches_exactly_at_the_threshold(self, threshold):
        emb, labels = self.corpus(24)
        rcs = RecommendationCandidateSet(
            ann=ANNConfig(threshold=threshold))
        attached = None
        for size, (row, label) in enumerate(zip(emb, labels), start=1):
            rcs.add(row, label)
            if size < threshold:
                assert rcs.index is None
                continue
            if attached is None:
                attached = rcs.index
                assert isinstance(attached, QuantizedStore)
            assert rcs.index is attached          # attached once, kept
            assert len(attached) == size
        np.testing.assert_array_equal(attached.codes,
                                      attached.quantize(emb))

    @pytest.mark.parametrize("ann", [None, ANNConfig(threshold=0)])
    def test_without_a_threshold_the_rcs_never_attaches(self, ann):
        emb, labels = self.corpus(40)
        rcs = RecommendationCandidateSet(emb[:20], labels[:20], ann=ann)
        for row, label in zip(emb[20:], labels[20:]):
            rcs.add(row, label)
        rcs.replace_embeddings(emb * 2.0)
        assert rcs.index is None

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_int8_tier_reproduces_the_exact_scan_on_separated_clouds(
            self, dtype):
        rng = np.random.default_rng(5)
        centers = rng.normal(size=(30, 8)) * 6.0
        emb = (centers[:, None, :] + 0.1 * rng.normal(size=(30, 4, 8))
               ).reshape(-1, 8).astype(dtype)
        label = DatasetLabel(MODELS, [1, 2, 3], [0.1, 0.2, 0.3])
        tiered = RecommendationCandidateSet(
            emb, [label] * len(emb), ann=ANNConfig(threshold=len(emb)),
            quantization=QuantizationConfig(overfetch=2))
        assert isinstance(tiered.index, QuantizedStore)
        queries = emb[::5] + dtype(0.02)
        qi, qd = tiered.search(queries, 4)
        ei, ed = exact_search(queries, emb, 4)
        assert qd.dtype == np.dtype(dtype) == tiered.embeddings.dtype
        np.testing.assert_array_equal(qi, ei)
        # The two paths' Gram identities differ only by cancellation
        # noise, which scales with the tier's epsilon and the squared norms.
        norms = float((emb.astype(np.float64) ** 2).sum(axis=1).max())
        np.testing.assert_allclose(
            qd.astype(np.float64) ** 2, ed.astype(np.float64) ** 2,
            atol=64 * np.finfo(dtype).eps * norms)

    def test_in_range_adds_keep_the_frozen_calibration(self):
        emb, labels = self.corpus(self.THRESHOLD + 8)
        rcs = RecommendationCandidateSet(
            emb[:self.THRESHOLD], labels[:self.THRESHOLD],
            ann=ANNConfig(threshold=self.THRESHOLD))
        store = rcs.index
        scale, zero_point = store.scale, store.zero_point.copy()
        inside = (emb[:8] + emb[8:16]) / 2.0       # within the calibration
        for row, label in zip(inside, labels):
            rcs.add(row, label)
        assert store.scale == scale
        np.testing.assert_array_equal(store.zero_point, zero_point)
        np.testing.assert_array_equal(store.codes[-8:],
                                      store.quantize(inside))

    def test_add_of_a_gross_outlier_recalibrates_the_int8_store(self):
        emb, labels = self.corpus(self.THRESHOLD)
        rcs = RecommendationCandidateSet(
            emb, labels, ann=ANNConfig(threshold=self.THRESHOLD))
        store = rcs.index
        outlier = emb[0] + 100.0 * (emb.max() - emb.min())
        rcs.add(outlier, labels[0])
        assert rcs.index is store
        fresh = QuantizedStore(rcs.embeddings)
        assert store.scale == fresh.scale
        np.testing.assert_array_equal(store.codes, fresh.codes)
        assert store._added_since_calibration == 0

    def test_non_finite_add_leaves_the_rcs_and_store_untouched(self):
        emb, labels = self.corpus(self.THRESHOLD)
        rcs = RecommendationCandidateSet(
            emb, labels, ann=ANNConfig(threshold=self.THRESHOLD))
        codes = rcs.index.codes.copy()
        bad = emb[0].copy()
        bad[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            rcs.add(bad, labels[0])
        assert len(rcs) == len(rcs.index) == self.THRESHOLD
        np.testing.assert_array_equal(rcs.index.codes, codes)

    def test_warm_attach_adopts_a_store_covering_the_rows(self):
        emb, labels = self.corpus(self.THRESHOLD)
        prebuilt = QuantizedStore(emb)
        rcs = RecommendationCandidateSet(
            emb, labels, ann=ANNConfig(threshold=self.THRESHOLD),
            quantized_store=prebuilt)
        assert rcs.index is prebuilt

    def test_warm_attach_refuses_a_store_of_another_size(self):
        emb, labels = self.corpus(self.THRESHOLD)
        stale = QuantizedStore(emb[:-1])
        rcs = RecommendationCandidateSet(
            emb, labels, ann=ANNConfig(threshold=self.THRESHOLD),
            quantized_store=stale)
        assert rcs.index is not stale
        assert len(rcs.index) == self.THRESHOLD
        np.testing.assert_array_equal(rcs.index.codes,
                                      QuantizedStore(emb).codes)

    def test_warm_attach_refuses_a_store_below_the_threshold(self):
        emb, labels = self.corpus(self.THRESHOLD - 1)
        rcs = RecommendationCandidateSet(
            emb, labels, ann=ANNConfig(threshold=self.THRESHOLD),
            quantized_store=QuantizedStore(emb))
        assert rcs.index is None

    def test_predictor_recommends_through_the_attached_tier(self):
        emb, _ = self.corpus(self.THRESHOLD)
        rng = np.random.default_rng(2)
        labels = [DatasetLabel(MODELS, rng.uniform(1, 9, 3),
                               rng.uniform(0.001, 0.01, 3))
                  for _ in range(len(emb))]
        rcs = RecommendationCandidateSet(
            emb, labels, ann=ANNConfig(threshold=self.THRESHOLD),
            quantization=QuantizationConfig(overfetch=2))
        assert rcs.index is not None
        queries = emb[:6] + 0.01
        recs = KNNPredictor(k=3).recommend_batch(queries, rcs, 0.9)
        want_i, want_d = rcs.search(queries, 3)
        for rec, i, d in zip(recs, want_i, want_d):
            np.testing.assert_array_equal(rec.neighbor_indices, i)
            np.testing.assert_array_equal(rec.neighbor_distances, d)
            scores = rcs.score_matrix(0.9)[i].mean(axis=0)
            assert rec.model == MODELS[int(np.argmax(scores))]


class TestDriftDetectorDegenerateRCS:
    def test_single_member_rcs_never_flags_drift(self):
        rcs = RecommendationCandidateSet(
            np.zeros((1, 4)),
            [DatasetLabel(MODELS, [1, 2, 3], [0.1, 0.2, 0.3])])
        detector = DriftDetector()
        assert detector.threshold(rcs) == np.inf
        assert not detector.is_drifted(np.full(4, 100.0), rcs)

    def test_empty_rcs_never_flags_drift(self):
        rcs = RecommendationCandidateSet()
        assert DriftDetector().threshold(rcs) == np.inf

    def test_two_members_restore_normal_behaviour(self):
        label = DatasetLabel(MODELS, [1, 2, 3], [0.1, 0.2, 0.3])
        rcs = RecommendationCandidateSet(
            np.array([[0.0, 0.0], [1.0, 0.0]]), [label, label])
        detector = DriftDetector()
        assert np.isfinite(detector.threshold(rcs))
        assert detector.is_drifted(np.array([50.0, 50.0]), rcs)
        assert not detector.is_drifted(np.array([0.1, 0.0]), rcs)
