"""Feature engineering (Sec. V-A.1): extract CE-relevant dataset features.

Per column we extract the six features of Fig. 4 — skewness, kurtosis,
standard deviation, mean (absolute) deviation, range and domain size — plus
the column-to-column equality correlations (the reverse of generation
process F2).  Per table we add the number of rows and columns; per FK edge
we extract the join correlation |set(FK)| / |set(PK)| (the reverse of F3).

All features are squashed into bounded ranges so they are directly usable
as GIN inputs without a separate scaler.

One implementation computes them: :func:`column_features_matrix` gives all
six statistics for every column of a table, and
:func:`equality_correlation_matrix` its m×m correlation matrix, each in a
few whole-table numpy passes.  The per-column loops they replaced are the
scalar oracle in ``tests/oracles.py``, which they match to rtol 1e-14
(``tests/core/test_fast_path.py``).

Every served request pays for featurization, so it makes few passes over
a table:
:func:`table_feature_vector` stacks the data columns once and both kernels
write straight into the vertex vector; :func:`column_features_matrix`
casts the rows into one float64 buffer, centers it in place for the
moments, then casts the rows into it again and sorts it in place for the
domain size (a second cast into a warm buffer is cheaper than a second
buffer), with the three higher moment products in one scratch buffer; and
:func:`equality_correlation_matrix` compares each unordered column pair
once.  Every ``Table`` column is int64, which allows three shortcuts that
float input may not take, because NaN and −0.0 would make them differ: the
range comes from the ends of the sorted rows, the correlation diagonal is
1.0, and there is no NaN to fold out of the domain size.  Every feature is
bit-identical to the broadcast implementation these kernels replaced,
the oracle in ``tests/oracles.py`` that ``tests/core/test_featurizer_pin.py``
pins them to.
"""

from __future__ import annotations

import numpy as np

from ..db.schema import Dataset
from ..db.table import Table

#: Number of scalar features extracted per column (the paper's ``k``).
FEATURES_PER_COLUMN = 6


def _squash_array(values: np.ndarray) -> np.ndarray:
    """Map unbounded statistics into (-1, 1)."""
    return values / (1.0 + np.abs(values))


def _is_integer(matrix: np.ndarray) -> bool:
    """Integer (or bool) input: no NaN, no −0.0, and ``x == x`` always."""
    return matrix.dtype.kind in "biu"


def _row_means(matrix: np.ndarray) -> np.ndarray:
    """``matrix.mean(axis=1)`` of a float64 matrix, bit for bit: the same
    sum divided by the same count, without ``ndarray.mean``'s Python-level
    wrapper, which costs more than the reduction on a few thousand rows."""
    return np.add.reduce(matrix, axis=1) / matrix.shape[1]


def column_features_matrix(matrix: np.ndarray,
                           out: np.ndarray | None = None) -> np.ndarray:
    """All six Fig. 4 features for every row of ``matrix`` in one pass.

    ``matrix`` is [m, R] (one row per column of the table); the result is
    [m, k], written into ``out`` when it is given (a view of a vertex
    block, say).  Every reduction runs along the contiguous row axis, as
    the scalar per-column oracle does over its 1-D array.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("expected a [columns, rows] matrix")
    m, r = matrix.shape
    if out is None:
        out = np.empty((m, FEATURES_PER_COLUMN))
    if r == 0 or m == 0:
        out[...] = 0.0
        return out
    integer = _is_integer(matrix)
    # One float64 buffer: centered in place for the moments, then refilled
    # from ``matrix`` and sorted in place for the domain size.
    values = np.array(matrix, dtype=np.float64)
    if not integer:
        # NaN propagates through max/min but sorts last, and a sorted row
        # may start with 0.0 where min returns -0.0.
        value_range = values.max(axis=1) - values.min(axis=1)
    centered = np.subtract(values, _row_means(values)[:, None], out=values)
    # Moments via explicit products: ``centered ** 3`` / ``** 4`` dispatch to
    # libm pow, ~60× slower than the equivalent multiplications.
    squared = centered * centered
    std = np.sqrt(_row_means(squared))
    safe_std = np.where(std > 0, std, 1.0)
    nonzero = std > 0
    # One scratch buffer holds the three higher products in turn.
    scratch = np.multiply(squared, centered)
    skewness = np.where(
        nonzero, _row_means(scratch) / safe_std ** 3, 0.0)
    kurtosis = np.where(
        nonzero, _row_means(np.multiply(squared, squared, out=scratch))
        / safe_std ** 4 - 3.0, 0.0)
    mean_dev = _row_means(np.abs(centered, out=scratch))
    # Domain size via a per-row sort: #unique = 1 + #(adjacent differences).
    np.copyto(values, matrix, casting="unsafe")
    values.sort(axis=1)
    if integer:
        value_range = values[:, -1] - values[:, 0]
    # One count per row: count_nonzero along an axis is a slower bool sum.
    domain = 1.0 + np.array([np.count_nonzero(row) for row
                             in values[:, 1:] != values[:, :-1]])
    if not integer:
        # NaN != NaN, so adjacent counting sees every NaN as distinct while
        # the scalar oracle's np.unique collapses them (equal_nan=True);
        # fold the extras back so both agree.
        nan_counts = np.isnan(values).sum(axis=1)
        domain = domain - np.maximum(nan_counts - 1, 0)
    out[:, 0] = _squash_array(skewness)
    out[:, 1] = _squash_array(kurtosis)
    out[:, 2] = std / (value_range + 1.0)
    out[:, 3] = mean_dev / (value_range + 1.0)
    out[:, 4] = np.log1p(value_range) / 10.0
    out[:, 5] = np.log1p(domain) / 10.0
    return out


def equality_correlation_matrix(matrix: np.ndarray,
                                out: np.ndarray | None = None) -> np.ndarray:
    """The m×m equality-correlation matrix of the rows of ``matrix`` (F2⁻¹).

    Each unordered pair is compared once and mirrored, and
    ``count_nonzero / R`` equals the mean of the boolean row bit for bit.
    The result is written into ``out`` when it is given.
    """
    matrix = np.asarray(matrix)
    m, r = matrix.shape
    if out is None:
        out = np.empty((m, m))
    if r == 0 or m == 0:
        out[...] = 0.0
        return out
    integer = _is_integer(matrix)
    for i in range(m):
        row = matrix[i]
        out[i, i] = 1.0 if integer else np.count_nonzero(row == row) / r
        for j in range(i + 1, m):
            out[i, j] = out[j, i] = np.count_nonzero(row == matrix[j]) / r
    return out


def table_feature_vector(table: Table, max_columns: int) -> np.ndarray:
    """Flattened vertex features: [n_rows, n_cols, per-column (k + m) blocks].

    Layout follows Sec. V-A.2 vertex modeling: a table contributes
    ``(k + m) · m + 2`` features, zero-padded when it has fewer than ``m``
    data columns.
    """
    data_columns = table.data_columns()
    columns = data_columns[:max_columns]
    k = FEATURES_PER_COLUMN
    vector = np.zeros((k + max_columns) * max_columns + 2)
    vector[0] = np.log1p(table.num_rows) / 15.0
    vector[1] = len(data_columns) / 25.0
    if not columns:
        return vector
    matrix = np.array([table[c] for c in columns])
    n_cols = len(columns)
    # One [m, k + max_columns] block per column: a view of the vector, so
    # both kernels write their features in place.
    block = vector[2:2 + n_cols * (k + max_columns)].reshape(
        n_cols, k + max_columns)
    column_features_matrix(matrix, out=block[:, :k])
    equality_correlation_matrix(matrix, out=block[:, k:k + n_cols])
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
