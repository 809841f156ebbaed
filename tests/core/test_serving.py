"""Scale-out serving: the embedding cache, parallel featurization, the
int8 tier's size rule, drift-detector degenerate cases, the RCS's refusal
of non-finite embeddings, and the per-RCS memos: the members'
nearest-neighbour distances and squared norms, and the drift threshold."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.serving.store as store_module
from oracles import (per_call_distance_to_rcs,
                     per_call_nearest_neighbor_distances, per_call_threshold)
from repro.core.advisor import AutoCE, AutoCEConfig
from repro.core.dml import DMLConfig
from repro.core.graph import FeatureGraph
from repro.core.online import DriftDetector
from repro.core.persistence import load_advisor, save_advisor
from repro.core.serving import (ANNConfig, KNNPredictor, QuantizationConfig,
                                QuantizedStore, RecommendationCandidateSet,
                                exact_search, serves_int8)
from repro.datagen.multi_table import generate_dataset
from repro.datagen.spec import random_spec
from repro.testbed.scores import DatasetLabel, ScoreLabel

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


def score_label(seed=0):
    rng = np.random.default_rng(seed)
    return ScoreLabel(MODELS, rng.uniform(size=3), rng.uniform(size=3))


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


class TestFeaturizeMany:
    def test_matches_featurize_one_by_one(self):
        datasets = [generate_dataset(random_spec(100 + i,
                                                 ranges={"num_tables": (1, 3)}))
                    for i in range(6)]
        advisor = AutoCE()
        graphs = advisor.featurize_many(datasets)
        for dataset, graph in zip(datasets, graphs):
            expected = advisor.featurize(dataset)
            assert graph.name == expected.name
            assert graph.vertices.tobytes() == expected.vertices.tobytes()
            assert graph.edges.tobytes() == expected.edges.tobytes()

    def test_prebuilt_graphs_pass_through(self):
        graphs, _ = tiny_corpus(4)
        built = AutoCE().featurize_many(graphs)
        assert all(a is b for a, b in zip(built, graphs))

    def test_mixed_batch_keeps_its_order(self):
        graphs, _ = tiny_corpus(2)
        dataset = generate_dataset(random_spec(7, ranges={"num_tables": (1, 2)}))
        built = AutoCE().featurize_many([graphs[0], dataset, graphs[1]])
        assert built[0] is graphs[0] and built[2] is graphs[1]
        assert isinstance(built[1], FeatureGraph)
        assert built[1].name == dataset.name


class TestAdvisorANNSelection:
    def test_rcs_carries_advisor_ann_config(self):
        graphs, labels = tiny_corpus()
        ann = ANNConfig(threshold=8)
        advisor = AutoCE(fast_config(ann=ann))
        advisor.fit_graphs(graphs, labels)
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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_at_the_threshold_the_rcs_quantizes_its_rows(self, dtype):
        emb, labels = self.corpus(self.THRESHOLD)
        emb = emb.astype(dtype)
        config = QuantizationConfig(overfetch=2)
        rcs = RecommendationCandidateSet(
            emb, labels, ann=ANNConfig(threshold=self.THRESHOLD),
            quantization=config)
        store = QuantizedStore(emb, config)
        assert isinstance(rcs.index, QuantizedStore)
        assert rcs.index.scale == store.scale
        np.testing.assert_array_equal(rcs.index.zero_point, store.zero_point)
        np.testing.assert_array_equal(rcs.index.codes, store.codes)
        queries = emb[::4] + dtype(0.01)
        for got, want in zip(rcs.search(queries, 3),
                             store.search(queries, emb, 3)):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype

    @pytest.mark.parametrize("size, threshold, expected", [
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
        assert serves_int8(size, ANNConfig(threshold=threshold)) is expected

    def test_default_threshold_is_4096(self):
        """The size E2LSH used to attach at, so every corpus that served
        the exact scan before still does."""
        assert ANNConfig().threshold == 4096
        assert not serves_int8(4095, ANNConfig())
        assert serves_int8(4096, ANNConfig())

    @pytest.mark.parametrize("threshold", [1, 2, 5, 16])
    def test_constructed_rcs_attaches_exactly_at_the_threshold(self,
                                                               threshold):
        emb, labels = self.corpus(24)
        for size in range(1, 25):
            rcs = RecommendationCandidateSet(
                emb[:size], labels[:size],
                ann=ANNConfig(threshold=threshold))
            if size < threshold:
                assert rcs.index is None
                continue
            assert isinstance(rcs.index, QuantizedStore)
            assert len(rcs.index) == size
            np.testing.assert_array_equal(
                rcs.index.codes, QuantizedStore(emb[:size]).codes)

    @pytest.mark.parametrize("tier", [{}, {"ann": ANNConfig(threshold=0)}],
                             ids=["default", "threshold-0"])
    def test_without_a_threshold_the_rcs_never_attaches(self, tier):
        """Threshold 0, which is also the RCS's default, keeps the exact
        scan at every size."""
        emb, labels = self.corpus(40)
        for size in (0, 1, 20, 40):
            rcs = RecommendationCandidateSet(emb[:size], labels[:size],
                                             **tier)
            assert rcs.index is None
        assert RecommendationCandidateSet(emb * 2.0, labels,
                                          **tier).index is None

    def test_the_config_is_frozen(self):
        with pytest.raises(AttributeError):
            ANNConfig().threshold = 0

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
        rcs = RecommendationCandidateSet(np.zeros((0, 4)), [])
        assert DriftDetector().threshold(rcs) == np.inf
        assert not DriftDetector().is_drifted(np.full(4, 100.0), rcs)

    def test_two_members_restore_normal_behaviour(self):
        label = DatasetLabel(MODELS, [1, 2, 3], [0.1, 0.2, 0.3])
        rcs = RecommendationCandidateSet(
            np.array([[0.0, 0.0], [1.0, 0.0]]), [label, label])
        detector = DriftDetector()
        assert np.isfinite(detector.threshold(rcs))
        assert detector.is_drifted(np.array([50.0, 50.0]), rcs)
        assert not detector.is_drifted(np.array([0.1, 0.0]), rcs)


class TestRCSRejectsNonFiniteEmbeddings:
    """The constructor is the one entry point for rows, so it refuses a
    non-finite one before anything is computed from it."""

    def rows(self, n=6, dim=5, seed=0):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, dim)), [score_label(i) for i in range(n)]

    def test_constructor_rejects_a_nan_row(self):
        emb, labels = self.rows()
        emb[2, 1] = np.nan
        with pytest.raises(ValueError, match=r"non-finite.*row\(s\) 2"):
            RecommendationCandidateSet(emb, labels)

    def test_constructor_rejects_an_inf_row(self):
        emb, labels = self.rows()
        emb[5] = -np.inf
        with pytest.raises(ValueError, match=r"non-finite.*row\(s\) 5"):
            RecommendationCandidateSet(emb, labels)

    def test_constructor_names_the_bad_rows(self):
        emb, labels = self.rows()
        emb[1, 3] = np.nan
        emb[4, 0] = np.inf
        with pytest.raises(ValueError, match=r"row\(s\) 1, 4"):
            RecommendationCandidateSet(emb, labels)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_int8_tier_refuses_a_nan_row(self, dtype):
        """Quantized, a NaN row would make the int8 scale NaN and
        scramble the neighbours."""
        emb, labels = self.rows(n=12)
        emb = emb.astype(dtype)
        emb[7, 0] = np.nan
        with pytest.raises(ValueError, match=r"row\(s\) 7"):
            RecommendationCandidateSet(emb, labels, ann=ANNConfig(threshold=8))

    def test_finite_rows_still_flow(self):
        emb, labels = self.rows()
        rcs = RecommendationCandidateSet(emb, labels)
        assert len(rcs) == 6
        np.testing.assert_array_equal(rcs.embeddings, emb)


class TestRCSIsBuiltOnce:
    def test_rows_are_a_read_only_copy(self):
        rng = np.random.default_rng(4)
        emb = rng.normal(size=(5, 3))
        rcs = RecommendationCandidateSet(emb, [score_label(i)
                                               for i in range(5)])
        emb[0] = 99.0
        assert rcs.embeddings[0, 0] != 99.0
        with pytest.raises(ValueError):
            rcs.embeddings[1] = 0.0

    def test_misaligned_labels_are_refused(self):
        with pytest.raises(ValueError, match="align"):
            RecommendationCandidateSet(np.zeros((3, 4)),
                                       [score_label(0), score_label(1)])

    def test_score_matrix_is_memoized_per_weight(self):
        rcs = random_rcs(6)
        first = rcs.score_matrix(0.9)
        assert rcs.score_matrix(0.9) is first
        assert first.shape == (6, 3)
        assert rcs.score_matrix(0.5) is not first
        np.testing.assert_array_equal(
            first, np.stack([label.score_vector(0.9)
                             for label in rcs.labels]))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_memos_live_as_long_as_the_rcs(self, dtype):
        rcs = random_rcs(12, dtype=dtype)
        distances = rcs.nearest_neighbor_distances()
        norms = rcs.squared_norms_for(rcs.embeddings[:1])
        rcs.search(rcs.embeddings[:3] + dtype(0.01), 2)
        DriftDetector().is_drifted(rcs.embeddings[0], rcs)
        assert rcs.nearest_neighbor_distances() is distances
        assert rcs.squared_norms_for(rcs.embeddings[:1]) is norms


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def random_rcs(n, dim=8, dtype=np.float64, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    labels = [DatasetLabel(MODELS, rng.uniform(1, 9, 3),
                           rng.uniform(0.001, 0.01, 3)) for _ in range(n)]
    return RecommendationCandidateSet(
        rng.normal(size=(n, dim)).astype(dtype), labels, **kwargs)


def fresh_copy(rcs):
    """A newly built RCS over the same rows and labels (no memo yet)."""
    return RecommendationCandidateSet(rcs.embeddings.copy(), list(rcs.labels))


def assert_same_drift_state(rcs, expected):
    assert_bitwise(rcs.nearest_neighbor_distances(),
                   expected.nearest_neighbor_distances())
    detector = DriftDetector()
    assert_bitwise(detector.threshold(rcs), detector.threshold(expected))


@pytest.fixture
def nn_kernel_runs(monkeypatch):
    """Records every run of the RCS's N×N nearest-neighbor kernel."""
    runs = []
    real = store_module.squared_distance_matrix

    def spy(a, b):
        runs.append((len(a), len(b)))
        return real(a, b)

    monkeypatch.setattr(store_module, "squared_distance_matrix", spy)
    return runs


class TestDriftThresholdMemo:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_memo_equals_the_per_call_expression(self, dtype):
        rcs = random_rcs(40, dtype=dtype)
        assert_bitwise(rcs.nearest_neighbor_distances(),
                       per_call_nearest_neighbor_distances(rcs))
        assert rcs.nearest_neighbor_distances().dtype == dtype
        assert_bitwise(DriftDetector().threshold(rcs),
                       per_call_threshold(rcs))

    def test_kernel_runs_once_per_rcs(self, nn_kernel_runs):
        rcs = random_rcs(30)
        detector = DriftDetector()
        rng = np.random.default_rng(1)
        probes = np.concatenate([rcs.embeddings[:25] + 0.01,
                                 rng.normal(size=(25, 8)) * 10.0])
        threshold = per_call_threshold(rcs)
        runs_before = len(nn_kernel_runs)
        verdicts = [detector.is_drifted(p, rcs) for p in probes]
        assert nn_kernel_runs[runs_before:] == [(30, 30)]
        assert verdicts == [detector.distance_to_rcs(p, rcs) > threshold
                            for p in probes]
        assert True in verdicts and False in verdicts
        grown = RecommendationCandidateSet(
            np.vstack([rcs.embeddings, probes[-1]]),
            rcs.labels + rcs.labels[:1])
        for p in probes[:5]:
            detector.is_drifted(p, grown)
            detector.is_drifted(p, rcs)
        assert nn_kernel_runs[runs_before:] == [(30, 30), (31, 31)]

    def test_setup_search_and_updates_never_run_the_kernel(
            self, nn_kernel_runs, tmp_path):
        rcs = random_rcs(12, ann=ANNConfig(threshold=8))
        assert rcs.index is not None
        rcs.search(rcs.embeddings[:3], 2)
        exact = random_rcs(5)
        exact.search(exact.embeddings[:1], 2)
        graphs, labels = tiny_corpus()
        advisor = AutoCE(fast_config()).fit_graphs(graphs, labels)
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        reloaded = load_advisor(path)
        reloaded.recommend(graphs[0], 0.9)
        reloaded.set_dtype("float32")
        advisor.adapt_online(graphs[1], labels[1], update_epochs=1)
        assert nn_kernel_runs == []
        # The spy is live: the first drift check pays the kernel once.
        advisor.is_drifted(graphs[2])
        assert nn_kernel_runs == [(len(advisor.rcs), len(advisor.rcs))]

    @pytest.mark.parametrize("n", [1, 5])
    def test_returned_vector_is_read_only(self, n):
        distances = random_rcs(n).nearest_neighbor_distances()
        with pytest.raises(ValueError):
            distances[0] = 1.0

    def test_adapt_online_matches_a_fresh_rcs(self):
        graphs, labels = tiny_corpus()
        advisor = AutoCE(fast_config()).fit_graphs(graphs[:12], labels[:12])
        [advisor.is_drifted(g) for g in graphs]    # fill the memo
        advisor.adapt_online(graphs[12], labels[12], update_epochs=2)
        fresh = fresh_copy(advisor.rcs)
        assert_same_drift_state(advisor.rcs, fresh)
        assert [advisor.is_drifted(g) for g in graphs] == [
            advisor.detector.is_drifted(advisor.embed(g), fresh)
            for g in graphs]

    def test_reloaded_advisor_has_the_same_threshold(self, tmp_path):
        graphs, labels = tiny_corpus()
        advisor = AutoCE(fast_config()).fit_graphs(graphs, labels)
        path = str(tmp_path / "advisor.npz")
        save_advisor(advisor, path)
        reloaded = load_advisor(path)
        assert_same_drift_state(reloaded.rcs, advisor.rcs)


def probes_for(rcs, dtype=None, seed=4):
    """Six probes next to members and six far outside the RCS."""
    rng = np.random.default_rng(seed)
    dim = rcs.embeddings.shape[1]
    probes = np.concatenate([
        rcs.embeddings[:6] + 0.01 * rng.normal(size=(6, dim)),
        rng.normal(size=(6, dim)) * 10.0])
    return probes.astype(dtype or rcs.embeddings.dtype)


def assert_same_as_per_call(rcs, probes, detector=None, k=4):
    """Drift verdicts, distances, the threshold and the exact search all
    equal the per-call expressions, bit for bit."""
    detector = detector or DriftDetector()
    threshold = per_call_threshold(rcs, detector.percentile)
    verdicts = []
    for probe in probes:
        distance = per_call_distance_to_rcs(probe, rcs)
        assert detector.distance_to_rcs(probe, rcs).hex() == distance.hex()
        assert detector.threshold(rcs).hex() == threshold.hex()
        verdicts.append(detector.is_drifted(probe, rcs))
        assert verdicts[-1] == (distance > threshold)
    nearest, distances = rcs.search(probes, k)
    expected_nearest, expected_distances = exact_search(
        probes, rcs.embeddings, min(k, len(rcs)))
    assert_bitwise(nearest, expected_nearest)
    assert_bitwise(distances, expected_distances)
    return verdicts


class TestMemberNormsMemo:
    """The RCS keeps its members' squared norms per state, and the drift
    detector its threshold; neither changes a bit of any answer."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_drift_and_search_equal_the_per_call_expressions(self, dtype):
        rcs = random_rcs(60, dtype=dtype)
        probes = probes_for(rcs)
        for _ in range(2):              # memo cold, then warm
            verdicts = assert_same_as_per_call(rcs, probes)
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("rcs_dtype, query_dtype", [
        (np.float64, np.float32), (np.float32, np.float64)])
    def test_queries_of_another_dtype_use_no_memo(self, rcs_dtype,
                                                  query_dtype):
        rcs = random_rcs(40, dtype=rcs_dtype)
        probes = probes_for(rcs, dtype=query_dtype)
        assert rcs.squared_norms_for(probes) is None
        assert rcs.squared_norms_for(probes.astype(rcs_dtype)) is not None
        assert_same_as_per_call(rcs, probes)

    def test_norms_are_memoized_read_only(self):
        rcs = random_rcs(10)
        query = rcs.embeddings[:1]
        norms = rcs.squared_norms_for(query)
        assert rcs.squared_norms_for(query) is norms
        assert_bitwise(norms, (rcs.embeddings * rcs.embeddings).sum(axis=1))
        with pytest.raises(ValueError):
            norms[0] = 1.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_a_rebuilt_rcs_has_its_own_memos(self, dtype):
        """The path ``adapt_online`` takes: a new RCS over the old rows and
        one more member gets fresh memos, and every answer equals the
        per-call expressions over its rows."""
        rcs = random_rcs(20, dtype=dtype)
        probes = probes_for(rcs)
        detector = DriftDetector()
        assert_same_as_per_call(rcs, probes, detector)     # fill the memos
        norms = rcs.squared_norms_for(probes)
        # A new member next to a far probe moves that probe's verdict,
        # its distance and the members' nearest-neighbour spread.
        grown = RecommendationCandidateSet(
            np.vstack([rcs.embeddings, probes[-1] + dtype(0.001)]),
            rcs.labels + rcs.labels[:1])
        assert grown.squared_norms_for(probes) is not norms
        verdicts = assert_same_as_per_call(grown, probes, detector)
        assert not verdicts[-1]
        assert_same_drift_state(grown, fresh_copy(grown))
        assert rcs.squared_norms_for(probes) is norms   # the old one keeps

    def test_each_percentile_gets_its_own_threshold(self):
        rcs = random_rcs(40)
        high, low = DriftDetector(), DriftDetector(percentile=50.0)
        for _ in range(2):
            assert high.threshold(rcs) == per_call_threshold(rcs, 90.0)
            assert low.threshold(rcs) == per_call_threshold(rcs, 50.0)
        assert high.threshold(rcs) > low.threshold(rcs)
        high.percentile = 50.0
        assert high.threshold(rcs) == per_call_threshold(rcs, 50.0)

    def test_one_detector_serves_two_rcs(self):
        first, second = random_rcs(30, seed=1), random_rcs(30, seed=2)
        detector = DriftDetector()
        for _ in range(2):
            for rcs in (first, second):
                assert detector.threshold(rcs) == per_call_threshold(rcs)
        assert detector.threshold(first) != detector.threshold(second)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_advisor_verdicts_and_picks_equal_the_per_call_search(self,
                                                                  dtype):
        graphs, labels = tiny_corpus()
        advisor = AutoCE(fast_config(dtype=dtype)).fit_graphs(
            graphs[:12], labels[:12])
        rcs = advisor.rcs
        threshold = per_call_threshold(rcs)
        for graph in graphs:
            embedding = advisor.embed(graph)
            assert advisor.is_drifted(graph) == (
                per_call_distance_to_rcs(embedding, rcs) > threshold)
            nearest, distances = exact_search(embedding, rcs.embeddings,
                                              min(5, len(rcs)))
            for weight in (0.0, 0.5, 0.9, 1.0):
                rec = advisor.recommend(graph, weight)
                scores = rcs.score_matrix(weight)[nearest].mean(axis=1)[0]
                assert rec.model == MODELS[int(np.argmax(scores))]
                assert_bitwise(rec.neighbor_indices, nearest[0])
                assert_bitwise(rec.neighbor_distances, distances[0])
                assert_bitwise(rec.score_vector, scores)


class TestAdaptOnline:
    """``adapt_online`` adds the labeled sample, retrains the encoder and
    builds a new RCS from it, on either tier and precision."""

    TIERS = [ANNConfig(threshold=0), ANNConfig(threshold=8)]

    @staticmethod
    def far_graph():
        return FeatureGraph("far", np.full((2, 10), 6.0), np.zeros((2, 2)))

    def fitted(self, dtype, ann, members=12):
        graphs, labels = tiny_corpus()
        advisor = AutoCE(fast_config(dtype=dtype, ann=ann)).fit_graphs(
            graphs[:members], labels[:members])
        return advisor, graphs, labels

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("ann", TIERS)
    def test_an_adapted_graph_is_no_longer_drifted(self, dtype, ann):
        advisor, _, labels = self.fitted(dtype, ann)
        far = self.far_graph()
        assert advisor.is_drifted(far)
        advisor.adapt_online(far, labels[0], update_epochs=2)
        assert not advisor.is_drifted(far)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_adapting_across_the_threshold_attaches_the_int8_store(
            self, dtype):
        advisor, graphs, labels = self.fitted(dtype, ANNConfig(threshold=8),
                                              members=7)
        assert advisor.rcs.index is None
        advisor.adapt_online(graphs[7], labels[7], update_epochs=1)
        store = advisor.rcs.index
        assert isinstance(store, QuantizedStore) and len(store) == 8
        np.testing.assert_array_equal(
            store.codes, QuantizedStore(advisor.rcs.embeddings).codes)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("ann", TIERS)
    def test_the_adapted_advisor_survives_save_and_load(self, dtype, ann,
                                                        tmp_path):
        """The adapted RCS rows, labels and drift threshold, and the
        picks, come back bit for bit from a save."""
        advisor, graphs, labels = self.fitted(dtype, ann)
        far = self.far_graph()
        advisor.adapt_online(far, labels[0], update_epochs=2)
        path = str(tmp_path / "adapted.npz")
        save_advisor(advisor, path)
        node = load_advisor(path)
        assert_bitwise(node.rcs.embeddings, advisor.rcs.embeddings)
        assert_bitwise(node.rcs.score_matrix(0.9),
                       advisor.rcs.score_matrix(0.9))
        assert_same_drift_state(node.rcs, advisor.rcs)
        if ann.threshold:
            np.testing.assert_array_equal(node.rcs.index.codes,
                                          advisor.rcs.index.codes)
        queries = graphs + [far]
        assert ([r.model for r in node.recommend_batch(queries, 0.9)]
                == [r.model for r in advisor.recommend_batch(queries, 0.9)])
