"""Numerical-equivalence tests for the vectorized end-to-end fast path.

The vectorized featurizer, the corpus tensor cache used by DML training,
and the batched serving path must reproduce the scalar reference paths —
exactly on the exact featurizer path, and to tight tolerance wherever the
Gram-matrix distance identity replaces direct differencing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.advisor import AutoCE, AutoCEConfig
from repro.core.dml import DMLConfig, DMLTrainer
from repro.core.encoder import GINEncoder
from repro.core.features import (column_features, column_features_matrix,
                                 correlation_row, equality_correlation_matrix,
                                 table_feature_vector,
                                 table_feature_vector_reference)
from repro.core.graph import (FeatureGraph, GraphTensorBatcher, batch_graphs,
                              build_feature_graph,
                              build_feature_graph_reference)
from repro.core.serving import (RecommendationCandidateSet,
                                squared_distance_matrix, top_k_neighbors)
from repro.datagen.multi_table import generate_dataset
from repro.datagen.spec import random_spec
from repro.testbed.scores import DatasetLabel

MODELS = ("A", "B", "C")


def synthetic_corpus(n=24, dim=12, seed=0):
    """Learnable corpus (structure determines the winning model)."""
    rng = np.random.default_rng(seed)
    graphs, labels = [], []
    for i in range(n):
        kind = i % 3
        shift = {0: 2.0, 1: -2.0, 2: 0.0}[kind]
        tables = int(rng.integers(1, 4))
        vertices = rng.normal(size=(tables, dim)) * 0.3
        vertices[:, 0] += shift
        edges = np.zeros((tables, tables))
        for t in range(1, tables):
            edges[t - 1, t] = 0.5
        graphs.append(FeatureGraph(f"g{i}", vertices, edges))
        qerr = {0: [1.1, 3.0, 6.0], 1: [6.0, 1.1, 3.0], 2: [3.0, 6.0, 1.1]}[kind]
        qerr = list(np.array(qerr) + rng.uniform(0, 0.2, 3))
        labels.append(DatasetLabel(MODELS, qerr, [0.001, 0.002, 0.003]))
    return graphs, labels


@pytest.fixture(scope="module")
def corpus():
    return synthetic_corpus()


@pytest.fixture(scope="module")
def datasets():
    return [generate_dataset(random_spec(seed)) for seed in (11, 22, 33)]


class TestVectorizedFeaturizer:
    def test_column_features_matrix_matches_scalar(self, rng):
        matrix = rng.integers(0, 50, size=(5, 400))
        expected = np.stack([column_features(row) for row in matrix])
        # Identical up to 1 ULP (python-float vs numpy-array pow in std**4).
        np.testing.assert_allclose(column_features_matrix(matrix), expected,
                                   rtol=1e-14, atol=1e-15)

    def test_constant_and_single_value_columns(self):
        matrix = np.vstack([np.full(30, 7), np.arange(30)])
        expected = np.stack([column_features(row) for row in matrix])
        np.testing.assert_array_equal(column_features_matrix(matrix), expected)

    def test_empty_matrix(self):
        assert column_features_matrix(np.zeros((3, 0))).shape == (3, 6)
        np.testing.assert_array_equal(column_features_matrix(np.zeros((3, 0))), 0.0)

    def test_equality_correlation_matches_scalar(self, rng, small_dataset):
        table = small_dataset[small_dataset.table_names[0]]
        columns = table.data_columns()
        matrix = np.stack([table[c] for c in columns])
        full = equality_correlation_matrix(matrix)
        for i, column in enumerate(columns):
            expected = correlation_row(table, column, columns, len(columns))
            np.testing.assert_array_equal(full[i], expected)

    def test_table_vector_matches_reference(self, small_dataset, single_dataset):
        for dataset in (small_dataset, single_dataset):
            for name in dataset.table_names:
                table = dataset[name]
                np.testing.assert_allclose(
                    table_feature_vector(table, 5),
                    table_feature_vector_reference(table, 5),
                    rtol=1e-14, atol=1e-15)

    def test_graph_matches_reference_on_corpus(self, datasets):
        for dataset in datasets:
            fast = build_feature_graph(dataset)
            reference = build_feature_graph_reference(dataset)
            np.testing.assert_allclose(fast.vertices, reference.vertices,
                                       rtol=1e-14, atol=1e-15)
            np.testing.assert_array_equal(fast.edges, reference.edges)


class TestTensorBatcher:
    def test_slices_match_batch_graphs(self, corpus):
        graphs, _ = corpus
        batcher = GraphTensorBatcher(graphs)
        idx = np.array([3, 0, 7])
        vertices, adjacency, mask = batcher.slice(idx)
        ref_v, ref_e, ref_m = batch_graphs([graphs[i] for i in idx])
        n = ref_v.shape[1]
        np.testing.assert_array_equal(vertices[:, :n], ref_v)
        np.testing.assert_array_equal(mask[:, :n], ref_m)
        np.testing.assert_array_equal(
            adjacency[:, :n, :n], ref_e + np.swapaxes(ref_e, 1, 2))
        # Padding beyond each batch's own max is all-zero.
        np.testing.assert_array_equal(vertices[:, n:], 0.0)
        np.testing.assert_array_equal(mask[:, n:], 0.0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_epoch_slices_embed_like_encode_batch(self, corpus, dtype):
        """DML training embeds each batch from views of one per-epoch
        gather of the corpus tensors; that equals padding the batch's own
        graphs (``encode_batch``), which training used to do per step."""
        graphs, _ = corpus
        encoder = GINEncoder(graphs[0].vertex_dim, hidden_dim=16,
                             embedding_dim=8, seed=0, dtype=np.dtype(dtype))
        batcher = GraphTensorBatcher(graphs, dtype=encoder.dtype)
        rng = np.random.default_rng(0)
        tolerance = 1e-12 if dtype == np.float64 else 1e-5
        for _ in range(3):
            order = rng.permutation(len(graphs))
            epoch_v, epoch_a, epoch_m = batcher.slice(order)
            for start in range(0, len(graphs), 8):
                stop = start + 8
                sliced = encoder.forward_adjacency(
                    epoch_v[start:stop], epoch_a[start:stop],
                    epoch_m[start:stop]).numpy()
                padded = encoder.encode_batch(
                    [graphs[i] for i in order[start:stop]]).numpy()
                assert sliced.dtype == padded.dtype == dtype
                np.testing.assert_allclose(sliced, padded, rtol=tolerance,
                                           atol=tolerance)


class TestGramDistances:
    def test_matches_broadcast_distances(self, rng):
        a = rng.normal(size=(7, 5))
        b = rng.normal(size=(9, 5))
        direct = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(squared_distance_matrix(a, b), direct,
                                   rtol=1e-9, atol=1e-9)

    def test_nearest_neighbor_distances_match_naive(self, rng):
        emb = rng.normal(size=(20, 6))
        labels = [DatasetLabel(MODELS, [1.0, 2.0, 3.0],
                               [0.001, 0.002, 0.003])] * 20
        rcs = RecommendationCandidateSet(emb, list(labels))
        diff = emb[:, None, :] - emb[None, :, :]
        naive = np.sqrt((diff ** 2).sum(axis=2))
        np.fill_diagonal(naive, np.inf)
        np.testing.assert_allclose(rcs.nearest_neighbor_distances(),
                                   naive.min(axis=1), rtol=1e-9, atol=1e-9)

    def test_top_k_matches_stable_argsort(self, rng):
        distances = rng.normal(size=(10, 40)) ** 2
        for k in (1, 2, 5, 40):
            expected = np.argsort(distances, axis=1, kind="stable")[:, :k]
            np.testing.assert_array_equal(top_k_neighbors(distances, k),
                                          expected)

    def test_top_k_breaks_ties_by_index(self):
        distances = np.array([[1.0, 0.5, 0.5, 2.0]])
        np.testing.assert_array_equal(top_k_neighbors(distances, 2),
                                      [[1, 2]])

    def test_top_k_ties_straddling_boundary(self, rng):
        # Duplicate distances crossing the k-th position (e.g. duplicate
        # embeddings in the RCS) must resolve to the lowest indices, exactly
        # as the stable argsort the fast path replaced.
        values = rng.integers(0, 5, size=(200, 30)).astype(np.float64)
        for k in (1, 3, 7):
            expected = np.argsort(values, axis=1, kind="stable")[:, :k]
            np.testing.assert_array_equal(top_k_neighbors(values, k),
                                          expected)


class TestBatchedServing:
    @pytest.fixture(scope="class")
    def advisor(self, corpus):
        graphs, labels = corpus
        advisor = AutoCE(AutoCEConfig(
            hidden_dim=24, embedding_dim=8,
            dml=DMLConfig(epochs=15, batch_size=12), seed=0))
        return advisor.fit(graphs, labels)

    def test_predictor_batch_matches_sequential(self, corpus, advisor):
        graphs, _ = corpus
        embeddings = advisor.encoder.embed(graphs)
        batch = advisor.predictor.recommend_batch(
            embeddings, advisor.rcs, accuracy_weight=0.9)
        for embedding, rec in zip(embeddings, batch):
            single = advisor.predictor.recommend(
                embedding, advisor.rcs, accuracy_weight=0.9)
            assert rec.model == single.model
            np.testing.assert_array_equal(rec.neighbor_indices,
                                          single.neighbor_indices)
            np.testing.assert_allclose(rec.score_vector, single.score_vector,
                                       rtol=1e-9)
            # sqrt of the Gram identity turns ~1e-15 noise into ~1e-7.
            np.testing.assert_allclose(rec.neighbor_distances,
                                       single.neighbor_distances,
                                       rtol=1e-6, atol=1e-6)

    def test_advisor_batch_matches_sequential(self, corpus, advisor):
        graphs, _ = corpus
        batch = advisor.recommend_batch(graphs, accuracy_weight=0.8)
        sequential = [advisor.recommend(g, accuracy_weight=0.8)
                      for g in graphs]
        assert [r.model for r in batch] == [r.model for r in sequential]
        for b, s in zip(batch, sequential):
            np.testing.assert_allclose(b.score_vector, s.score_vector,
                                       rtol=1e-9)

    def test_empty_batch(self, advisor):
        assert advisor.recommend_batch([]) == []

    def test_embedding_cache_hits_on_repeat_traffic(self, corpus):
        graphs, labels = corpus
        advisor = AutoCE(AutoCEConfig(
            hidden_dim=16, embedding_dim=8, use_incremental=False,
            dml=DMLConfig(epochs=2, batch_size=12), seed=1))
        advisor.fit(graphs, labels)
        cache = advisor.embedding_cache
        assert cache is not None and len(cache) == 0
        advisor.recommend(graphs[0], 1.0)
        misses = cache.misses
        advisor.recommend(graphs[0], 1.0)
        assert cache.hits >= 1 and cache.misses == misses
        # Cached and fresh embeddings agree.
        np.testing.assert_allclose(
            advisor.embed(graphs[0]),
            advisor.encoder.embed([graphs[0]])[0], rtol=1e-12)

    def test_cache_invalidated_by_online_adapting(self, corpus):
        graphs, labels = corpus
        advisor = AutoCE(AutoCEConfig(
            hidden_dim=16, embedding_dim=8, use_incremental=False,
            dml=DMLConfig(epochs=2, batch_size=12), seed=1))
        advisor.fit(graphs[:-1], labels[:-1])
        advisor.recommend(graphs[0], 1.0)
        assert len(advisor.embedding_cache) > 0
        advisor.adapt_online(graphs[-1], labels[-1], update_epochs=1)
        assert len(advisor.embedding_cache) == 0

    def test_cache_disabled(self, corpus):
        graphs, labels = corpus
        advisor = AutoCE(AutoCEConfig(
            hidden_dim=16, embedding_dim=8, use_incremental=False,
            embedding_cache_size=0,
            dml=DMLConfig(epochs=2, batch_size=12), seed=1))
        advisor.fit(graphs, labels)
        assert advisor.embedding_cache is None
        assert advisor.recommend(graphs[0], 1.0).model in MODELS


class TestFusedGradients:
    """Hand-derived backwards of the fused ops vs finite differences."""

    @staticmethod
    def _numeric_grad(fn, x, eps=1e-6):
        grad = np.zeros_like(x)
        flat = x.ravel()
        out = grad.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            hi = fn()
            flat[i] = original - eps
            lo = fn()
            flat[i] = original
            out[i] = (hi - lo) / (2 * eps)
        return grad

    def test_weighted_loss_gradient(self, rng):
        from repro import nn
        from repro.core.losses import (cosine_similarity_matrix,
                                       weighted_contrastive_loss)
        emb = rng.normal(size=(6, 4))
        sims = cosine_similarity_matrix(rng.uniform(0.1, 1.0, size=(6, 3)))
        x = nn.Tensor(emb.copy(), requires_grad=True)
        loss = weighted_contrastive_loss(x, sims, tau=0.8, gamma=2.0)
        loss.backward()
        numeric = self._numeric_grad(
            lambda: weighted_contrastive_loss(
                nn.Tensor(emb), sims, tau=0.8, gamma=2.0).item(), emb)
        np.testing.assert_allclose(x.grad, numeric, rtol=1e-5, atol=1e-7)

    def test_pairwise_distances_gradient(self, rng):
        from repro import nn
        from repro.core.losses import pairwise_distances
        emb = rng.normal(size=(5, 3))
        weights = rng.normal(size=(5, 5))
        # The diagonal sits at the clipped sqrt(0 + 1e-12) kink, where the
        # derivative is ill-conditioned for finite differences.
        np.fill_diagonal(weights, 0.0)
        x = nn.Tensor(emb.copy(), requires_grad=True)
        (pairwise_distances(x) * nn.Tensor(weights)).sum().backward()
        numeric = self._numeric_grad(
            lambda: float((pairwise_distances(nn.Tensor(emb)).numpy()
                           * weights).sum()), emb)
        np.testing.assert_allclose(x.grad, numeric, rtol=1e-5, atol=1e-6)

    def test_fused_affine_relu_gradient(self, rng):
        from repro import nn
        mlp = nn.MLP([4, 6, 3], rng, output_activation="relu")
        x_data = rng.normal(size=(2, 5, 4))
        x = nn.Tensor(x_data.copy(), requires_grad=True)
        out = mlp(x)
        assert out.shape == (2, 5, 3)
        (out * out).sum().backward()
        params = mlp.parameters()
        for param in params:
            assert param.grad is not None

        def value():
            return float((mlp(nn.Tensor(x_data)).numpy() ** 2).sum())
        numeric_x = self._numeric_grad(value, x_data)
        np.testing.assert_allclose(x.grad, numeric_x, rtol=1e-4, atol=1e-6)
        w = params[0]
        numeric_w = self._numeric_grad(value, w.data)
        np.testing.assert_allclose(w.grad, numeric_w, rtol=1e-4, atol=1e-6)

    def test_gin_encoder_gradients(self, corpus, rng):
        from repro import nn
        from repro.core.graph import GraphTensorBatcher
        graphs, _ = corpus
        encoder = GINEncoder(graphs[0].vertex_dim, hidden_dim=6,
                             embedding_dim=4, seed=0)
        # Perturb the zero-initialized biases so no pre-activation sits
        # exactly on the ReLU kink (where relu'(0)=0 by convention but a
        # central finite difference sees slope 1/2).
        for param in encoder.parameters():
            param.data += rng.uniform(0.01, 0.05, size=param.data.shape)
        batcher = GraphTensorBatcher(graphs[:4])
        idx = np.arange(4)

        def value():
            with nn.no_grad():
                out = encoder.forward_adjacency(*batcher.slice(idx))
            return float((out.numpy() ** 2).sum())

        out = encoder.forward_adjacency(*batcher.slice(idx))
        (out * out).sum().backward()
        for param in encoder.parameters():
            numeric = self._numeric_grad(value, param.data)
            np.testing.assert_allclose(param.grad, numeric,
                                       rtol=1e-4, atol=1e-6)


class TestFusedAdam:
    def test_matches_reference_loop(self, rng):
        from repro import nn

        def reference_adam_step(params, m_list, v_list, t, lr=1e-3,
                                b1=0.9, b2=0.999, eps=1e-8):
            bias1 = 1.0 - b1 ** t
            bias2 = 1.0 - b2 ** t
            for p, m, v in zip(params, m_list, v_list):
                g = p["grad"]
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * g * g
                p["data"] -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)

        shapes = [(3, 4), (4,), (2, 2)]
        datas = [rng.normal(size=s) for s in shapes]
        grads = [rng.normal(size=s) for s in shapes]
        tensors = [nn.Tensor(d.copy(), requires_grad=True) for d in datas]
        opt = nn.Adam(tensors, lr=1e-3)
        refs = [{"data": d.copy(), "grad": g} for d, g in zip(datas, grads)]
        m_list = [np.zeros_like(d) for d in datas]
        v_list = [np.zeros_like(d) for d in datas]
        for t in range(1, 4):
            for tensor, ref in zip(tensors, refs):
                tensor.grad = ref["grad"].copy()
            opt.step()
            reference_adam_step(refs, m_list, v_list, t)
        for tensor, ref in zip(tensors, refs):
            np.testing.assert_allclose(tensor.data, ref["data"],
                                       rtol=1e-12, atol=1e-14)

    def test_clip_folded_into_step(self, rng):
        from repro import nn
        data = rng.normal(size=(4, 4))
        grad = rng.normal(size=(4, 4)) * 100.0
        a = nn.Tensor(data.copy(), requires_grad=True)
        b = nn.Tensor(data.copy(), requires_grad=True)
        opt_a = nn.Adam([a], lr=1e-2)
        opt_b = nn.Adam([b], lr=1e-2)
        a.grad = grad.copy()
        b.grad = grad.copy()
        opt_a.step(grad_clip=1.0)
        nn.clip_grad_norm([b], 1.0)
        opt_b.step()
        np.testing.assert_allclose(a.data, b.data, rtol=1e-12)

    def test_rebinds_after_state_dict_load(self, rng):
        from repro import nn
        layer = nn.Linear(3, 2, rng)
        opt = nn.Adam(layer.parameters(), lr=1e-2)
        state = {k: v * 2.0 for k, v in layer.state_dict().items()}
        layer.load_state_dict(state)
        for param in layer.parameters():
            param.grad = np.ones_like(param.data)
        opt.step()
        # Updates are applied to the freshly loaded values, not stale views.
        np.testing.assert_allclose(
            layer.weight.data, state["weight"] - opt.lr / (np.sqrt(1.0) + 1e-8),
            rtol=1e-6)
