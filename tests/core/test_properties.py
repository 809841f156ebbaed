"""Property-based equivalence harness for the fast paths and precision tiers.

Every test class asserts one *property* over a family of randomized inputs —
fast-path vs reference featurization, float32 vs float64 GIN/loss/optimizer
agreement at dtype-appropriate tolerances, serving-kernel identities — with
the corpus generator seeded per case.  A failing case's seed appears in the
pytest id (e.g. ``test_featurize_matches_reference[17]``), so any failure is
reproduced by running that single id; no state leaks between cases.

The randomized corpora deliberately include the ugly shapes production
featurization meets: tables with zero rows, zero data columns, constant
columns, single-value domains, and (at the kernel level) NaN-bearing float
columns.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import (scalar_column_features, scalar_feature_graph,
                     summed_norm_rerank)
from repro import nn
from repro.core.dml import DMLConfig, DMLTrainer
from repro.core.encoder import GINEncoder
from repro.core.features import column_features_matrix
from repro.core.graph import (FeatureGraph, GraphTensorBatcher,
                              build_feature_graph)
from repro.core.losses import (basic_contrastive_loss,
                               cosine_similarity_matrix,
                               weighted_contrastive_loss)
from repro.core.serving import (_common_dtype, exact_search,
                                require_finite_embeddings, rerank_candidates,
                                squared_distance_matrix, top_k_neighbors)
from repro.db.schema import Dataset, ForeignKey
from repro.db.table import Table
from repro.testbed.scores import DatasetLabel

MODELS = ("A", "B", "C")


# ----------------------------------------------------------------------
# Randomized corpus generators (all derive from one integer seed)
# ----------------------------------------------------------------------
def random_table(rng: np.random.Generator, name: str,
                 allow_empty: bool = True) -> Table:
    """A table with randomized width/rows, including degenerate shapes."""
    choices = [0, 1, 3, 40, 120] if allow_empty else [1, 3, 40, 120]
    rows = int(rng.choice(choices))
    columns = {"pk": np.arange(rows, dtype=np.int64)}
    for c in range(int(rng.integers(0, 7))):
        kind = rng.integers(0, 4)
        if kind == 0:        # constant column
            values = np.full(rows, int(rng.integers(-5, 50)))
        elif kind == 1:      # tiny domain (heavy ties)
            values = rng.integers(0, 3, size=rows)
        elif kind == 2:      # skewed wide domain
            values = (rng.pareto(1.5, size=rows) * 10).astype(np.int64)
        else:                # plain uniform
            values = rng.integers(-100, 100, size=rows)
        columns[f"col{c}"] = values.astype(np.int64)
    return Table(name, columns)


def random_dataset(seed: int) -> Dataset:
    """1–4 randomized tables joined by a random PK–FK forest."""
    rng = np.random.default_rng(1_000_003 * seed + 17)
    num_tables = int(rng.integers(1, 5))
    tables = [random_table(rng, f"t{i}", allow_empty=i > 0)
              for i in range(num_tables)]
    foreign_keys = []
    for i in range(1, num_tables):
        parent = tables[int(rng.integers(0, i))]
        child = tables[i]
        if parent.num_rows == 0 or child.num_rows == 0 or rng.random() < 0.3:
            continue
        fk = rng.integers(0, parent.num_rows, size=child.num_rows)
        child.columns[f"fk_{parent.name}"] = fk.astype(np.int64)
        foreign_keys.append(ForeignKey(child=child.name,
                                       fk_column=f"fk_{parent.name}",
                                       parent=parent.name))
    return Dataset(f"prop{seed}", tables, foreign_keys)


def random_graph_corpus(seed: int, n: int = 10, dim: int = 12):
    """Random feature graphs + labels for GIN/loss/training properties."""
    rng = np.random.default_rng(7_654_321 * seed + 5)
    graphs, labels = [], []
    for i in range(n):
        tables = int(rng.integers(1, 6))
        vertices = rng.normal(size=(tables, dim))
        edges = np.zeros((tables, tables))
        for t in range(1, tables):
            if rng.random() < 0.8:
                edges[t - 1, t] = rng.uniform(0.1, 1.0)
        graphs.append(FeatureGraph(f"s{seed}g{i}", vertices, edges))
        labels.append(DatasetLabel(MODELS, rng.uniform(1, 10, 3),
                                   rng.uniform(0.001, 0.01, 3)))
    return graphs, labels


def rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(a)), 1e-12)
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64)
                                - np.asarray(b, dtype=np.float64))) / scale


# ----------------------------------------------------------------------
# Featurization: fast path == scalar reference on randomized datasets
# ----------------------------------------------------------------------
class TestFeaturizationProperties:
    @pytest.mark.parametrize("seed", range(14))
    def test_featurize_matches_reference(self, seed):
        dataset = random_dataset(seed)
        fast = build_feature_graph(dataset)
        reference = scalar_feature_graph(dataset)
        np.testing.assert_allclose(
            fast.vertices, reference.vertices, rtol=1e-14, atol=1e-15,
            err_msg=f"reproduce with random_dataset({seed})")
        np.testing.assert_array_equal(fast.edges, reference.edges)

    @pytest.mark.parametrize("seed", range(10))
    def test_column_kernel_matches_scalar_with_nan(self, seed):
        """The vectorized kernel agrees with the per-column loop even on
        float inputs with NaN and constant rows (NaN counts once in the
        domain, statistics propagate NaN identically)."""
        rng = np.random.default_rng(31 * seed + 2)
        m, r = int(rng.integers(1, 7)), int(rng.choice([1, 2, 30, 80]))
        matrix = rng.normal(size=(m, r)) * 10
        for row in range(m):
            kind = rng.integers(0, 3)
            if kind == 0:
                matrix[row] = matrix[row, 0]          # constant row
            elif kind == 1 and r > 1:
                nans = rng.random(r) < 0.3            # NaN-bearing row
                matrix[row, nans] = np.nan
        expected = np.stack([scalar_column_features(row) for row in matrix])
        np.testing.assert_allclose(
            column_features_matrix(matrix), expected, rtol=1e-14, atol=1e-15,
            err_msg=f"reproduce with seed {seed}")

    def test_empty_and_single_row_matrices(self):
        np.testing.assert_array_equal(
            column_features_matrix(np.zeros((4, 0))), np.zeros((4, 6)))
        one = np.array([[7.0]])
        np.testing.assert_allclose(column_features_matrix(one),
                                   scalar_column_features(one[0])[None, :])


# ----------------------------------------------------------------------
# GIN forward: float32 tier tracks the float64 reference
# ----------------------------------------------------------------------
class TestGINPrecisionProperties:
    @pytest.mark.parametrize("seed", range(8))
    def test_forward_agreement(self, seed):
        graphs, _ = random_graph_corpus(seed, n=8)
        e64 = GINEncoder(12, hidden_dim=16, embedding_dim=8, seed=seed)
        e32 = GINEncoder(12, hidden_dim=16, embedding_dim=8, seed=seed,
                         dtype=np.float32)
        out64 = e64.embed(graphs)
        out32 = e32.embed(graphs)
        assert out64.dtype == np.float64 and out32.dtype == np.float32
        assert rel_diff(out64, out32) < 1e-5, \
            f"float32 forward diverged (seed {seed})"

    @pytest.mark.parametrize("seed", range(6))
    def test_backward_agreement(self, seed):
        """Loss gradients through the full fused GIN stack agree across
        tiers (ReLU-kink flips are measure-zero for continuous inputs)."""
        graphs, labels = random_graph_corpus(seed, n=6)
        sims = cosine_similarity_matrix(np.stack(
            [label.score_vector(0.9) for label in labels]))
        grads = []
        for dtype in (np.float64, np.float32):
            encoder = GINEncoder(12, hidden_dim=16, embedding_dim=8,
                                 seed=seed, dtype=dtype)
            batcher = GraphTensorBatcher(graphs, dtype=encoder.dtype)
            out = encoder.forward_adjacency(batcher.vertices,
                                            batcher.adjacency, batcher.mask)
            loss = weighted_contrastive_loss(out, sims, tau=0.8)
            assert loss.data.dtype == dtype
            encoder.zero_grad()
            loss.backward()
            grads.append(np.concatenate(
                [param.grad.ravel().astype(np.float64)
                 for param in encoder.parameters()]))
        assert rel_diff(grads[0], grads[1]) < 1e-3, \
            f"float32 gradients diverged (seed {seed})"

    @pytest.mark.parametrize("seed", range(4))
    def test_one_epoch_training_agreement(self, seed):
        """A full DML epoch (tensor cache, fused loss, fused Adam) lands on
        the same loss and embeddings at float32 resolution."""
        graphs, labels = random_graph_corpus(seed, n=16)
        history, embeddings = [], []
        for dtype in ("float64", "float32"):
            encoder = GINEncoder(12, hidden_dim=16, embedding_dim=8,
                                 seed=seed, dtype=np.dtype(dtype))
            trainer = DMLTrainer(encoder, DMLConfig(
                epochs=2, batch_size=8, seed=seed))
            history.append(trainer.train(graphs, labels))
            embeddings.append(encoder.embed(graphs))
        assert rel_diff(np.array(history[0]), np.array(history[1])) < 1e-5, \
            f"loss history diverged (seed {seed})"
        assert rel_diff(embeddings[0], embeddings[1]) < 1e-4, \
            f"trained embeddings diverged (seed {seed})"


# ----------------------------------------------------------------------
# DML losses: tier agreement for both loss variants
# ----------------------------------------------------------------------
class TestLossPrecisionProperties:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("loss_fn", [weighted_contrastive_loss,
                                         basic_contrastive_loss])
    def test_loss_value_and_grad_agreement(self, seed, loss_fn):
        rng = np.random.default_rng(97 * seed + 13)
        m = int(rng.integers(3, 12))
        embeddings = rng.normal(size=(m, 8))
        sims = cosine_similarity_matrix(rng.uniform(0.1, 1.0, size=(m, 3)))
        values, grads = [], []
        for dtype in (np.float64, np.float32):
            x = nn.Tensor(embeddings.astype(dtype), requires_grad=True)
            loss = loss_fn(x, sims, tau=0.7, gamma=2.0)
            assert loss.data.dtype == dtype
            loss.backward()
            values.append(float(loss.item()))
            grads.append(x.grad)
        assert abs(values[0] - values[1]) <= 1e-5 * max(1.0, abs(values[0])), \
            f"loss value diverged (seed {seed})"
        assert rel_diff(grads[0], grads[1]) < 1e-3, \
            f"loss gradient diverged (seed {seed})"


# ----------------------------------------------------------------------
# Optimizer: fused float32 Adam tracks float64
# ----------------------------------------------------------------------
class TestAdamPrecisionProperties:
    @pytest.mark.parametrize("seed", range(4))
    def test_steps_agree(self, seed):
        rng = np.random.default_rng(11 * seed + 7)
        shapes = [(5, 3), (3,), (4, 4)]
        datas = [rng.normal(size=shape) for shape in shapes]
        step_grads = [[rng.normal(size=shape) for shape in shapes]
                      for _ in range(3)]
        results = []
        for dtype in (np.float64, np.float32):
            params = [nn.Tensor(d.astype(dtype), requires_grad=True)
                      for d in datas]
            optimizer = nn.Adam(params, lr=1e-2)
            for grads in step_grads:
                for param, grad in zip(params, grads):
                    param.grad = grad.astype(dtype)
                optimizer.step(grad_clip=1.0)
            assert all(p.data.dtype == dtype for p in params)
            results.append(np.concatenate(
                [p.data.ravel().astype(np.float64) for p in params]))
        assert rel_diff(results[0], results[1]) < 1e-4, \
            f"Adam diverged across tiers (seed {seed})"


# ----------------------------------------------------------------------
# Serving kernels: dtype preservation + identities under ties
# ----------------------------------------------------------------------
class TestServingKernelProperties:
    @pytest.mark.parametrize("seed", range(6))
    def test_distance_matrix_identity_and_dtype(self, seed):
        rng = np.random.default_rng(41 * seed + 3)
        a = rng.normal(size=(int(rng.integers(1, 9)), 5))
        b = rng.normal(size=(int(rng.integers(1, 20)), 5))
        direct = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(squared_distance_matrix(a, b), direct,
                                   rtol=1e-9, atol=1e-9,
                                   err_msg=f"seed {seed}")
        sq32 = squared_distance_matrix(a.astype(np.float32),
                                       b.astype(np.float32))
        assert sq32.dtype == np.float32
        np.testing.assert_allclose(sq32, direct, rtol=1e-4, atol=1e-4)
        # Mixed tiers meet at float64.
        assert squared_distance_matrix(
            a.astype(np.float32), b).dtype == np.float64

    @pytest.mark.parametrize("seed", range(6))
    def test_top_k_matches_stable_argsort_under_ties(self, seed):
        rng = np.random.default_rng(59 * seed + 1)
        distances = rng.integers(0, 4, size=(30, 25)).astype(np.float32)
        for k in (1, 3, 25):
            np.testing.assert_array_equal(
                top_k_neighbors(distances, k),
                np.argsort(distances, axis=1, kind="stable")[:, :k],
                err_msg=f"seed {seed} k={k}")

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_search_float32_agreement(self, seed):
        rng = np.random.default_rng(71 * seed + 9)
        members = rng.normal(size=(50, 6))
        queries = rng.normal(size=(7, 6))
        i64, d64 = exact_search(queries, members, 4)
        i32, d32 = exact_search(queries.astype(np.float32),
                                members.astype(np.float32), 4)
        assert d32.dtype == np.float32
        # Neighbor sets agree except across float32-resolution distance
        # ties; distances agree at float32 tolerance everywhere.
        np.testing.assert_allclose(d64, d32.astype(np.float64),
                                   rtol=1e-4, atol=1e-5,
                                   err_msg=f"seed {seed}")
        agree = np.mean([len(set(a) & set(b)) / 4 for a, b in zip(i64, i32)])
        assert agree == 1.0, f"float32 neighbors diverged (seed {seed})"

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_rerank_norm_branches_agree_bitwise(self, seed, dtype):
        """The re-rank given the members' memoized norms, the re-rank
        that sums each candidate's norm, each row re-ranked alone, and the
        previous re-rank (``oracles.summed_norm_rerank``: a corpus-wide
        norm pass for this batch, whose pools jointly cover the corpus,
        and ``top_k_neighbors``) must all return the same bits."""
        rng = np.random.default_rng(83 * seed + 5)
        members = rng.normal(size=(40, 6)).astype(dtype)
        members[20:30] = members[:10]            # tied candidates
        queries = rng.normal(size=(12, 6)).astype(dtype)
        candidates = np.sort(np.stack(
            [rng.choice(40, 10, replace=False) for _ in range(12)]), axis=1)
        norms = (members * members).sum(axis=1)
        batch_i, batch_d = rerank_candidates(queries, members, candidates, 4,
                                             norms)
        assert batch_d.dtype == dtype
        for got in (rerank_candidates(queries, members, candidates, 4),
                    summed_norm_rerank(queries, members, candidates, 4)):
            np.testing.assert_array_equal(got[0], batch_i)
            np.testing.assert_array_equal(got[1], batch_d)
        for q in range(len(queries)):
            row_i, row_d = rerank_candidates(queries[q:q + 1], members,
                                             candidates[q:q + 1], 4)
            np.testing.assert_array_equal(row_i[0], batch_i[q])
            np.testing.assert_array_equal(row_d[0], batch_d[q])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_embeddings_are_rejected_by_row(self, value):
        matrix = np.ones((4, 3))
        matrix[2, 1] = value
        with pytest.raises(ValueError, match=r"row\(s\) 2;"):
            require_finite_embeddings(matrix)
        require_finite_embeddings(np.ones((4, 3)))     # finite: no error

    def test_non_finite_report_names_at_most_five_rows(self):
        matrix = np.zeros((10, 2))
        matrix[1:9, 0] = np.nan
        with pytest.raises(ValueError,
                           match=r"RCS rows contain .* 1, 2, 3, 4, 5 "
                                 r"\(\+3 more\)"):
            require_finite_embeddings(matrix, "RCS rows")

    @pytest.mark.parametrize("a, b, expected", [
        (np.float32, np.float32, np.float32),
        (np.float32, np.float64, np.float64),
        (np.float64, np.float32, np.float64),
        (np.int64, np.float32, np.float64),
        (np.float16, np.float16, np.float64),
    ])
    def test_precision_tiers_meet_at_float32_only_when_both_are(
            self, a, b, expected):
        assert _common_dtype(np.zeros(2, a), np.zeros(2, b)) == expected
