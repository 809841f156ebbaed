"""The featurizer, pinned bit for bit to the broadcast kernels it replaced.

``column_features_matrix``, ``equality_correlation_matrix`` and
``table_feature_vector`` were rewritten to make fewer passes over a table
(one float64 conversion, one scratch buffer, in-place sort, pairwise
equality counts, features written into the vertex block).  The previous
implementations are the broadcast oracles in ``oracles.py``: every table
vector and feature graph must have the same bytes, on generated datasets
and on the edge tables the request path can meet.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import (broadcast_column_features,
                     broadcast_equality_correlation, broadcast_feature_graph,
                     broadcast_table_feature_vector)
from repro.core.features import (FEATURES_PER_COLUMN, column_features_matrix,
                                 equality_correlation_matrix,
                                 table_feature_vector)
from repro.core.graph import build_feature_graph
from repro.datagen.multi_table import generate_dataset
from repro.datagen.spec import random_spec
from repro.db.schema import Dataset, ForeignKey
from repro.db.table import PK_COLUMN, Table

from tests.core.test_properties import random_dataset

#: Generated datasets the pin covers: 48 corpus specs and the first 16
#: serve-cold request specs of ``benchmarks/e2e``.
SPEC_SEEDS = list(range(48)) + list(range(30_000_000, 30_000_016))


def assert_same_bytes(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_pinned(dataset: Dataset, max_columns: int = 5) -> None:
    for table in dataset.tables.values():
        assert_same_bytes(table_feature_vector(table, max_columns),
                          broadcast_table_feature_vector(table, max_columns))
    graph = build_feature_graph(dataset, max_columns)
    expected = broadcast_feature_graph(dataset, max_columns)
    assert_same_bytes(graph.vertices, expected.vertices)
    assert_same_bytes(graph.edges, expected.edges)


# ----------------------------------------------------------------------
# Generated datasets
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def generated():
    return [generate_dataset(random_spec(seed)) for seed in SPEC_SEEDS]


class TestGeneratedDatasets:
    def test_every_table_and_graph_is_bit_identical(self, generated):
        assert len(generated) == 64
        tables = 0
        for dataset in generated:
            assert_pinned(dataset)
            tables += dataset.num_tables
        assert tables > 64

    @pytest.mark.parametrize("max_columns", [1, 2, 3, 8])
    def test_other_column_budgets(self, generated, max_columns):
        for dataset in generated[::8]:
            assert_pinned(dataset, max_columns)

    @pytest.mark.parametrize("seed", range(14))
    def test_randomized_degenerate_datasets(self, seed):
        """Zero-row tables, tables without data columns, constant and
        tiny-domain columns and more than five data columns."""
        assert_pinned(random_dataset(seed))


# ----------------------------------------------------------------------
# Edge tables
# ----------------------------------------------------------------------
def one_table(columns: dict[str, np.ndarray]) -> Dataset:
    return Dataset("edge", [Table("t", columns)], [])


def rows(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(-40, 40, size=n)


EDGE_TABLES = {
    "zero-rows": {PK_COLUMN: np.arange(0), "col0": rows(0),
                  "col1": rows(0)},
    "one-row": {PK_COLUMN: np.arange(1), "col0": rows(1), "col1": rows(1)},
    "one-data-column": {PK_COLUMN: np.arange(50), "col0": rows(50)},
    "constant-column": {PK_COLUMN: np.arange(60), "col0": np.full(60, 7),
                        "col1": rows(60)},
    "all-constant": {"col0": np.zeros(30), "col1": np.full(30, -3)},
    "wider-than-max-columns": {
        PK_COLUMN: np.arange(80),
        **{f"col{i}": rows(80, seed=i) for i in range(8)}},
    "only-key-columns": {PK_COLUMN: np.arange(20),
                         "fk_other": np.zeros(20, dtype=np.int64)},
    "duplicate-columns": {"col0": rows(40), "col1": rows(40),
                          "col2": rows(40, seed=1)},
    "extreme-values": {"col0": np.array([np.iinfo(np.int64).min, 0,
                                         np.iinfo(np.int64).max, 2 ** 53,
                                         2 ** 53 + 1, -1]),
                       "col1": np.array([2 ** 53 + 1, 2 ** 53, 0, 0, 5, 5])},
}


class TestEdgeTables:
    @pytest.mark.parametrize("name", sorted(EDGE_TABLES))
    @pytest.mark.parametrize("max_columns", [1, 5])
    def test_bit_identical(self, name, max_columns):
        assert_pinned(one_table(EDGE_TABLES[name]), max_columns)

    def test_zero_row_table_has_an_all_zero_block(self):
        vector = table_feature_vector(Table("t", EDGE_TABLES["zero-rows"]), 5)
        assert vector[0] == 0.0 and vector[1] == 2 / 25.0
        assert not vector[2:].any()     # diagonal included

    def test_integer_diagonal_is_one(self):
        matrix = np.stack([rows(30, seed=s) for s in range(3)])
        np.testing.assert_array_equal(
            np.diag(equality_correlation_matrix(matrix)), 1.0)

    def test_writes_into_out_and_returns_it(self):
        matrix = np.stack([rows(25, seed=s) for s in range(3)])
        block = np.full((3, FEATURES_PER_COLUMN + 3), -1.0)
        features = column_features_matrix(matrix, out=block[:, :6])
        correlations = equality_correlation_matrix(matrix, out=block[:, 6:])
        assert np.shares_memory(features, block)
        assert np.shares_memory(correlations, block)
        assert_same_bytes(np.ascontiguousarray(block[:, :6]),
                          broadcast_column_features(matrix))
        assert_same_bytes(np.ascontiguousarray(block[:, 6:]),
                          broadcast_equality_correlation(matrix))

    def test_input_is_left_unchanged(self):
        matrix = np.stack([rows(25, seed=s) for s in range(3)])
        before = matrix.copy()
        column_features_matrix(matrix)
        equality_correlation_matrix(matrix)
        assert_same_bytes(matrix, before)


# ----------------------------------------------------------------------
# Float input keeps the previous arithmetic (NaN, signed zeros)
# ----------------------------------------------------------------------
def float_matrix(seed: int) -> np.ndarray:
    rng = np.random.default_rng(977 * seed + 3)
    m, r = int(rng.integers(1, 6)), int(rng.choice([1, 2, 9, 40]))
    matrix = np.round(rng.normal(size=(m, r)) * 3)
    for row in range(m):
        kind = rng.integers(0, 4)
        if kind == 0:
            matrix[row, rng.random(r) < 0.4] = np.nan
        elif kind == 1:
            matrix[row] = rng.choice([0.0, -0.0], size=r)
        elif kind == 2:
            matrix[row] = matrix[row, 0]
    return matrix


class TestFloatInput:
    @pytest.mark.parametrize("seed", range(24))
    def test_kernels_match_on_nan_and_signed_zero(self, seed):
        """Bytes, so a NaN payload or the sign of a zero counts too."""
        matrix = float_matrix(seed)
        assert_same_bytes(column_features_matrix(matrix),
                          broadcast_column_features(matrix))
        assert_same_bytes(equality_correlation_matrix(matrix),
                          broadcast_equality_correlation(matrix))

    @pytest.mark.parametrize("dtype", [np.float32, np.int32, np.uint8, bool])
    def test_other_dtypes(self, dtype):
        matrix = np.abs(np.stack([rows(30, seed=s) for s in range(3)]))
        matrix = matrix.astype(dtype)
        assert_same_bytes(column_features_matrix(matrix),
                          broadcast_column_features(matrix))
        assert_same_bytes(equality_correlation_matrix(matrix),
                          broadcast_equality_correlation(matrix))

    def test_fortran_ordered_input(self):
        matrix = np.asfortranarray(float_matrix(5))
        assert_same_bytes(column_features_matrix(matrix),
                          broadcast_column_features(matrix))


def test_multi_table_edges_unchanged():
    """Join correlations still come from ``Dataset.join_correlation``."""
    a = Table("a", {PK_COLUMN: np.arange(5), "col0": rows(5)})
    b = Table("b", {PK_COLUMN: np.arange(0), "fk_a": np.arange(0),
                    "col0": rows(0)})
    c = Table("c", {"fk_a": np.array([0, 0, 4, 1]), "col0": rows(4)})
    dataset = Dataset("three", [a, b, c], [ForeignKey("b", "fk_a", "a"),
                                           ForeignKey("c", "fk_a", "a")])
    assert_pinned(dataset)
