"""Feature engineering (Sec. V-A.1): extract CE-relevant dataset features.

Per column we extract the six features of Fig. 4 — skewness, kurtosis,
standard deviation, mean (absolute) deviation, range and domain size — plus
the column-to-column equality correlations (the reverse of generation
process F2).  Per table we add the number of rows and columns; per FK edge
we extract the join correlation |set(FK)| / |set(PK)| (the reverse of F3).

All features are squashed into bounded ranges so they are directly usable
as GIN inputs without a separate scaler.

Two implementations share the same definition: the vectorized fast path
(:func:`column_features_matrix`, :func:`equality_correlation_matrix`,
:func:`table_feature_vector`) computes all six statistics for every column
and the full m×m correlation matrix of a table in single broadcast numpy
passes, while the scalar reference path (:func:`column_features`,
:func:`correlation_row`, :func:`table_feature_vector_reference`) keeps the
original per-column loops.  The two are numerically equivalent (asserted in
``tests/core/test_fast_path.py``).
"""

from __future__ import annotations

import numpy as np

from ..datagen.distributions import measure_equality_correlation
from ..db.schema import Dataset
from ..db.table import Table

#: Number of scalar features extracted per column (the paper's ``k``).
FEATURES_PER_COLUMN = 6


def _squash(value: float) -> float:
    """Map an unbounded statistic into (-1, 1)."""
    return float(value / (1.0 + abs(value)))


def _squash_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_squash`."""
    return values / (1.0 + np.abs(values))


def column_features(values: np.ndarray) -> np.ndarray:
    """The k = 6 per-column features of Fig. 4 (bounded encodings)."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        return np.zeros(FEATURES_PER_COLUMN)
    mean = values.mean()
    std = values.std()
    centered = values - mean
    if std > 0:
        skewness = float((centered ** 3).mean() / std ** 3)
        kurtosis = float((centered ** 4).mean() / std ** 4 - 3.0)
    else:
        skewness = 0.0
        kurtosis = 0.0
    value_range = float(values.max() - values.min())
    domain = float(len(np.unique(values)))
    mean_dev = float(np.abs(centered).mean())
    return np.array([
        _squash(skewness),
        _squash(kurtosis),
        std / (value_range + 1.0),
        mean_dev / (value_range + 1.0),
        np.log1p(value_range) / 10.0,
        np.log1p(domain) / 10.0,
    ])


def column_features_matrix(matrix: np.ndarray) -> np.ndarray:
    """All six Fig. 4 features for every row of ``matrix`` in one pass.

    ``matrix`` is [m, R] (one row per column of the table); the result is
    [m, k].  Numerically identical to stacking :func:`column_features` over
    the rows — every reduction runs along the contiguous row axis exactly as
    the scalar path does over its 1-D array.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("expected a [columns, rows] matrix")
    m, r = matrix.shape
    if r == 0 or m == 0:
        return np.zeros((m, FEATURES_PER_COLUMN))
    mean = matrix.mean(axis=1)
    centered = matrix - mean[:, None]
    # Moments via explicit products: ``centered ** 3`` / ``** 4`` dispatch to
    # libm pow, ~60× slower than the equivalent multiplications.
    squared = centered * centered
    variance = squared.mean(axis=1)
    std = np.sqrt(variance)
    safe_std = np.where(std > 0, std, 1.0)
    nonzero = std > 0
    skewness = np.where(
        nonzero, (squared * centered).mean(axis=1) / safe_std ** 3, 0.0)
    kurtosis = np.where(
        nonzero, (squared * squared).mean(axis=1) / safe_std ** 4 - 3.0, 0.0)
    value_range = matrix.max(axis=1) - matrix.min(axis=1)
    # Domain size via a per-row sort: #unique = 1 + #(adjacent differences).
    sorted_rows = np.sort(matrix, axis=1)
    domain = 1.0 + np.count_nonzero(
        sorted_rows[:, 1:] != sorted_rows[:, :-1], axis=1)
    # NaN != NaN, so adjacent counting sees every NaN as distinct while the
    # scalar reference path's np.unique collapses them (equal_nan=True);
    # fold the extras back so both paths agree on NaN-bearing columns.
    nan_counts = np.isnan(matrix).sum(axis=1)
    domain = domain - np.maximum(nan_counts - 1, 0)
    mean_dev = np.abs(centered).mean(axis=1)
    return np.column_stack([
        _squash_array(skewness),
        _squash_array(kurtosis),
        std / (value_range + 1.0),
        mean_dev / (value_range + 1.0),
        np.log1p(value_range) / 10.0,
        np.log1p(domain) / 10.0,
    ])


def equality_correlation_matrix(matrix: np.ndarray) -> np.ndarray:
    """Full m×m equality-correlation matrix of the rows of ``matrix`` (F2⁻¹).

    Replaces the O(m²) per-pair :func:`correlation_row` passes with a single
    broadcast comparison.
    """
    matrix = np.asarray(matrix)
    m, r = matrix.shape
    if r == 0 or m == 0:
        return np.zeros((m, m))
    return (matrix[:, None, :] == matrix[None, :, :]).mean(axis=2)


def correlation_row(table: Table, column: str, columns: list[str],
                    max_columns: int) -> np.ndarray:
    """Equality correlations of ``column`` against every table column (F2⁻¹)."""
    row = np.zeros(max_columns)
    source = table[column]
    for j, other in enumerate(columns[:max_columns]):
        row[j] = measure_equality_correlation(source, table[other])
    return row


def table_feature_vector(table: Table, max_columns: int) -> np.ndarray:
    """Flattened vertex features: [n_rows, n_cols, per-column (k + m) blocks].

    Layout follows Sec. V-A.2 vertex modeling: a table contributes
    ``(k + m) · m + 2`` features, zero-padded when it has fewer than ``m``
    data columns.  Matches :func:`table_feature_vector_reference`.
    """
    columns = table.data_columns()[:max_columns]
    k = FEATURES_PER_COLUMN
    vector = np.zeros((k + max_columns) * max_columns + 2)
    vector[0] = np.log1p(table.num_rows) / 15.0
    vector[1] = len(table.data_columns()) / 25.0
    if not columns:
        return vector
    matrix = np.stack([table[c] for c in columns])
    n_cols = len(columns)
    # One [m, k + max_columns] block per column, ravelled into the vector.
    block = np.zeros((n_cols, k + max_columns))
    block[:, :k] = column_features_matrix(matrix)
    block[:, k:k + n_cols] = equality_correlation_matrix(matrix)
    vector[2:2 + n_cols * (k + max_columns)] = block.ravel()
    return vector


def table_feature_vector_reference(table: Table, max_columns: int) -> np.ndarray:
    """Scalar reference path: the original per-column loop implementation.

    Kept as the numerical ground truth for the vectorized fast path (see the
    equivalence tests and ``benchmarks/run_benchmarks.py``).
    """
    columns = table.data_columns()[:max_columns]
    k = FEATURES_PER_COLUMN
    vector = np.zeros((k + max_columns) * max_columns + 2)
    vector[0] = np.log1p(table.num_rows) / 15.0
    vector[1] = len(table.data_columns()) / 25.0
    offset = 2
    for column in columns:
        vector[offset:offset + k] = column_features(table[column])
        offset += k
        vector[offset:offset + max_columns] = correlation_row(
            table, column, columns, max_columns)
        offset += max_columns
    return vector


def join_correlation_matrix(dataset: Dataset) -> np.ndarray:
    """Edge matrix E (Sec. V-A.2): E[i][j] = join correlation of FK j→i.

    ``E[i][j]`` holds |set(FK)| / |set(PK)| when table ``j`` holds an FK
    referencing the PK of table ``i``, else 0 — exactly Example 3's layout.
    """
    names = sorted(dataset.table_names)
    index = {name: i for i, name in enumerate(names)}
    edges = np.zeros((len(names), len(names)))
    for fk in dataset.foreign_keys:
        parent = index[fk.parent]
        child = index[fk.child]
        edges[parent, child] = dataset.join_correlation(fk)
    return edges


def vertex_dimension(max_columns: int) -> int:
    return (FEATURES_PER_COLUMN + max_columns) * max_columns + 2
