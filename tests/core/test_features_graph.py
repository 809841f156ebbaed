"""Feature engineering and feature graphs (Sec. V-A)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import (FEATURES_PER_COLUMN, column_features_matrix,
                                 join_correlation_matrix,
                                 table_feature_vector, vertex_dimension)
from repro.core.graph import (FeatureGraph, batch_graphs, build_feature_graph)


class TestColumnFeatures:
    """The Fig. 4 features of one column: a one-row matrix through the
    kernel serving runs."""

    def test_length(self):
        feats = column_features_matrix(np.arange(100)[None, :])
        assert feats.shape == (1, FEATURES_PER_COLUMN)

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            values = rng.integers(0, 1000, 500)
            feats = column_features_matrix(values[None, :])
            assert np.all(np.abs(feats) <= 3.0)

    def test_skew_sign(self):
        right_skewed = np.concatenate([np.zeros(900), np.full(100, 100)])
        assert column_features_matrix(right_skewed[None, :])[0, 0] > 0.3

    def test_constant_column(self):
        feats = column_features_matrix(np.full((1, 50), 7))[0]
        assert feats[0] == 0.0 and feats[1] == 0.0

    def test_empty_column(self):
        np.testing.assert_array_equal(
            column_features_matrix(np.zeros((1, 0), dtype=np.int64)),
            np.zeros((1, FEATURES_PER_COLUMN)))


class TestVertexFeatures:
    def test_dimension_formula(self, small_dataset):
        m = 4
        table = small_dataset[small_dataset.table_names[0]]
        vec = table_feature_vector(table, m)
        assert vec.shape == (vertex_dimension(m),)
        assert vertex_dimension(m) == (FEATURES_PER_COLUMN + m) * m + 2

    def test_paper_example3_dimension(self):
        # Example 3: m = 4, k = 6 → (6+4)·4+2 = 42.
        assert vertex_dimension(4) == 42

    def test_padding_zeroes_missing_columns(self, small_dataset):
        # Table with 2 data columns, m = 5: the trailing blocks must be 0.
        name = min(small_dataset.table_names,
                   key=lambda n: len(small_dataset[n].data_columns()))
        table = small_dataset[name]
        n_cols = len(table.data_columns())
        m = 5
        vec = table_feature_vector(table, m)
        block = FEATURES_PER_COLUMN + m
        used = 2 + n_cols * block
        np.testing.assert_array_equal(vec[used:], 0.0)

    def test_self_correlation_is_one(self, small_dataset):
        table = small_dataset[small_dataset.table_names[0]]
        m = 5
        vec = table_feature_vector(table, m)
        block = FEATURES_PER_COLUMN + m
        # Column 0's correlation entry with itself is at offset 2 + k.
        assert vec[2 + FEATURES_PER_COLUMN] == pytest.approx(1.0)


class TestJoinMatrix:
    def test_placement_and_symmetry(self, small_dataset):
        edges = join_correlation_matrix(small_dataset)
        names = sorted(small_dataset.table_names)
        index = {n: i for i, n in enumerate(names)}
        for fk in small_dataset.foreign_keys:
            value = edges[index[fk.parent], index[fk.child]]
            assert value == pytest.approx(small_dataset.join_correlation(fk))
        # Non-edges are zero.
        assert np.count_nonzero(edges) == len(small_dataset.foreign_keys)

    def test_single_table_empty(self, single_dataset):
        edges = join_correlation_matrix(single_dataset)
        assert edges.shape == (1, 1)
        assert edges[0, 0] == 0.0


class TestFeatureGraph:
    def test_build(self, small_dataset):
        graph = build_feature_graph(small_dataset)
        assert graph.num_tables == small_dataset.num_tables
        assert graph.edges.shape == (graph.num_tables, graph.num_tables)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FeatureGraph("x", np.zeros((2, 3)), np.zeros((3, 3)))

    def test_padding(self, small_dataset):
        graph = build_feature_graph(small_dataset)
        padded = graph.padded(5)
        assert padded.num_tables == 5
        np.testing.assert_array_equal(padded.vertices[graph.num_tables:], 0.0)
        np.testing.assert_array_equal(
            padded.vertices[:graph.num_tables], graph.vertices)

    def test_padding_down_rejected(self, small_dataset):
        graph = build_feature_graph(small_dataset)
        with pytest.raises(ValueError):
            graph.padded(1)

    def test_mixup_convexity(self, small_dataset, single_dataset):
        g1 = build_feature_graph(small_dataset)
        g2 = build_feature_graph(single_dataset)
        mixed = g1.mix_with(g2, 0.25)
        n = max(g1.num_tables, g2.num_tables)
        expected = 0.25 * g1.padded(n).vertices + 0.75 * g2.padded(n).vertices
        np.testing.assert_allclose(mixed.vertices, expected)

    def test_mixup_lambda_one_recovers_self(self, small_dataset):
        g = build_feature_graph(small_dataset)
        mixed = g.mix_with(g, 1.0)
        np.testing.assert_allclose(mixed.vertices, g.vertices)

    def test_flat_length(self, small_dataset):
        g = build_feature_graph(small_dataset)
        assert g.flat().shape == (g.num_tables * g.vertex_dim
                                  + g.num_tables ** 2,)

    def test_batching(self, small_dataset, single_dataset):
        g1 = build_feature_graph(small_dataset)
        g2 = build_feature_graph(single_dataset)
        vertices, edges, mask = batch_graphs([g1, g2])
        n = max(g1.num_tables, g2.num_tables)
        assert vertices.shape == (2, n, g1.vertex_dim)
        assert edges.shape == (2, n, n)
        assert mask[0].sum() == g1.num_tables
        assert mask[1].sum() == g2.num_tables

    def test_batch_empty_rejected(self):
        with pytest.raises(ValueError):
            batch_graphs([])
