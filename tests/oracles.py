"""Reference oracles: the earlier implementations the fast kernels are
pinned to, bit for bit.

Each fast kernel on the paper's paths replaced a simpler implementation,
which is kept here, once, as the reference both its tests and its
``benchmarks/run_benchmarks.py`` row compare against:

* the featurizer (Sec. V-A): the scalar per-column loops, and the
  broadcast kernels that replaced them before the current ones;
* the drift check (Sec. V-E): the threshold and the distance to the RCS
  recomputed on every call;
* NeuroCard's progressive sampler: the full column walk;
* DeepDB, BayesCard and FLAT inference: the recursive SPN and Chow–Liu
  evaluation, with a leaf's ``np.dot`` of its bin probabilities and the
  discretizer mass it read, swapped in for the shipped methods by
  :func:`recursive_inference`;
* table scans: ``Table.select`` from an all-ones mask;
* the join graph: the eager networkx graph and forest check;
* the int8 tier: code distances accumulated in int32, the float
  reconstruction of a code, and the search that ranked code distances
  assembled from a GEMM of the codes and re-ranked with member norms it
  summed itself and ``top_k_neighbors``;
* dataset files: the format-1 writer and reader.

Test support only, like ``faults.py``: pytest puts ``tests/`` on
``sys.path``, so a test imports ``from oracles import ...``, and
``run_benchmarks.py`` puts ``tests/`` on ``sys.path`` itself.  The module
imports neither pytest nor hypothesis, so the bench runs without them,
and it imports networkx only inside :func:`eager_join_graph`.
"""

from __future__ import annotations

import contextlib
import json

import numpy as np

from repro.ce.chow_liu import ChowLiuTree
from repro.ce.discretize import Discretizer
from repro.ce.spn import LeafNode, ProductNode, SumNode
from repro.core.features import FEATURES_PER_COLUMN, join_correlation_matrix
from repro.core.graph import DEFAULT_MAX_COLUMNS, FeatureGraph
from repro.core.serving import (INT8_EXACT_MAX_DIM, _as_float_matrix,
                                _common_dtype, exact_search,
                                squared_distance_matrix,
                                top_k_neighbors)
from repro.db.schema import Dataset, ForeignKey
from repro.db.table import Table


# ----------------------------------------------------------------------
# The scalar featurizer: one column and one column pair at a time
# ----------------------------------------------------------------------
def measure_equality_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Reverse of F2 (Sec. V-A): the fraction of positions with equal values."""
    if len(a) == 0:
        return 0.0
    return float(np.mean(a == b))


def _squash(value: float) -> float:
    """Map an unbounded statistic into (-1, 1)."""
    return float(value / (1.0 + abs(value)))


def scalar_column_features(values: np.ndarray) -> np.ndarray:
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


def scalar_correlation_row(table: Table, column: str, columns: list[str],
                           max_columns: int) -> np.ndarray:
    """Equality correlations of ``column`` against every table column (F2⁻¹)."""
    row = np.zeros(max_columns)
    source = table[column]
    for j, other in enumerate(columns[:max_columns]):
        row[j] = measure_equality_correlation(source, table[other])
    return row


def scalar_table_feature_vector(table: Table, max_columns: int) -> np.ndarray:
    """The vertex vector of one table, built column by column."""
    columns = table.data_columns()[:max_columns]
    k = FEATURES_PER_COLUMN
    vector = np.zeros((k + max_columns) * max_columns + 2)
    vector[0] = np.log1p(table.num_rows) / 15.0
    vector[1] = len(table.data_columns()) / 25.0
    offset = 2
    for column in columns:
        vector[offset:offset + k] = scalar_column_features(table[column])
        offset += k
        vector[offset:offset + max_columns] = scalar_correlation_row(
            table, column, columns, max_columns)
        offset += max_columns
    return vector


def scalar_feature_graph(dataset: Dataset,
                         max_columns: int = DEFAULT_MAX_COLUMNS
                         ) -> FeatureGraph:
    """The feature graph of ``dataset`` through the scalar path."""
    names = sorted(dataset.table_names)
    vertices = np.stack([
        scalar_table_feature_vector(dataset[name], max_columns)
        for name in names
    ])
    edges = join_correlation_matrix(dataset)
    return FeatureGraph(dataset.name, vertices, edges)


# ----------------------------------------------------------------------
# The broadcast featurizer: whole-table kernels before the current ones
# ----------------------------------------------------------------------
def _squash_array(values: np.ndarray) -> np.ndarray:
    return values / (1.0 + np.abs(values))


def broadcast_column_features(matrix: np.ndarray) -> np.ndarray:
    """The previous ``column_features_matrix``: a float copy, one fresh
    array per moment product, a sorted copy, separate max and min and a
    NaN count."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("expected a [columns, rows] matrix")
    m, r = matrix.shape
    if r == 0 or m == 0:
        return np.zeros((m, FEATURES_PER_COLUMN))
    mean = matrix.mean(axis=1)
    centered = matrix - mean[:, None]
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
    sorted_rows = np.sort(matrix, axis=1)
    domain = 1.0 + np.count_nonzero(
        sorted_rows[:, 1:] != sorted_rows[:, :-1], axis=1)
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


def broadcast_equality_correlation(matrix: np.ndarray) -> np.ndarray:
    """The previous ``equality_correlation_matrix``: the ``[m, m, R]``
    equality compare."""
    matrix = np.asarray(matrix)
    m, r = matrix.shape
    if r == 0 or m == 0:
        return np.zeros((m, m))
    return (matrix[:, None, :] == matrix[None, :, :]).mean(axis=2)


def broadcast_table_feature_vector(table: Table,
                                   max_columns: int) -> np.ndarray:
    """The previous ``table_feature_vector``: a stack, the two kernels
    above, and a separate block copied into the vertex vector."""
    columns = table.data_columns()[:max_columns]
    k = FEATURES_PER_COLUMN
    vector = np.zeros((k + max_columns) * max_columns + 2)
    vector[0] = np.log1p(table.num_rows) / 15.0
    vector[1] = len(table.data_columns()) / 25.0
    if not columns:
        return vector
    matrix = np.stack([table[c] for c in columns])
    n_cols = len(columns)
    block = np.zeros((n_cols, k + max_columns))
    block[:, :k] = broadcast_column_features(matrix)
    block[:, k:k + n_cols] = broadcast_equality_correlation(matrix)
    vector[2:2 + n_cols * (k + max_columns)] = block.ravel()
    return vector


def broadcast_feature_graph(dataset: Dataset,
                            max_columns: int = DEFAULT_MAX_COLUMNS
                            ) -> FeatureGraph:
    """The feature graph of ``dataset`` through the broadcast kernels."""
    names = sorted(dataset.table_names)
    vertices = np.stack([
        broadcast_table_feature_vector(dataset[name], max_columns)
        for name in names])
    return FeatureGraph(dataset.name, vertices,
                        join_correlation_matrix(dataset))


# ----------------------------------------------------------------------
# The drift check, recomputed on every call
# ----------------------------------------------------------------------
def per_call_nearest_neighbor_distances(rcs) -> np.ndarray:
    """The members' nearest-neighbour distances before the memo: the full
    N×N matrix, an infinite diagonal, the row minimum, the square root."""
    sq = squared_distance_matrix(rcs.embeddings, rcs.embeddings)
    np.fill_diagonal(sq, np.inf)
    return np.sqrt(sq.min(axis=1))


def per_call_threshold(rcs, percentile: float = 90.0) -> float:
    """``DriftDetector.threshold`` before the memo; an RCS of fewer than
    two members has no spread, so nothing counts as drifted."""
    if len(rcs) < 2:
        return np.inf
    return float(np.percentile(per_call_nearest_neighbor_distances(rcs),
                               percentile))


def per_call_distance_to_rcs(embedding: np.ndarray, rcs) -> float:
    """``DriftDetector.distance_to_rcs`` before the member-norms memo: the
    kernel sums the members' squared norms itself."""
    return float(np.sqrt(squared_distance_matrix(embedding,
                                                 rcs.embeddings).min()))


# ----------------------------------------------------------------------
# NeuroCard's progressive sampler, walking every column
# ----------------------------------------------------------------------
def full_walk_sample(self, fitted, allowed) -> float:
    """The progressive sampler the shipped one replaced: every column of
    the template gets a MADE forward and a draw of uniforms.  Set it as
    ``_progressive_sample`` on a subclass of NeuroCard or UAE."""
    made = fitted.made
    samples = self.config.num_samples
    x = np.zeros((samples, made.input_dim), dtype=np.float64)
    weights = np.ones(samples, dtype=np.float64)
    for col, mass in enumerate(allowed):
        probs = made.conditional_probs(x, col)
        if mass is not None:
            restricted = probs * mass[None, :]
            col_mass = restricted.sum(axis=1)
            weights *= col_mass
            safe = np.where(col_mass[:, None] > 0,
                            restricted / np.maximum(col_mass[:, None], 1e-30),
                            np.full_like(probs, 1.0 / probs.shape[1]))
        else:
            safe = probs
        cdf = np.cumsum(safe, axis=1)
        draws = self._rng.random(samples)[:, None]
        chosen = (draws > cdf).sum(axis=1)
        chosen = np.minimum(chosen, probs.shape[1] - 1)
        offset = made.offsets[col]
        x[np.arange(samples), offset + chosen] = 1.0
    return float(weights.mean())


# ----------------------------------------------------------------------
# The recursive SPN and Chow–Liu evaluation
# ----------------------------------------------------------------------
def leaf_probability(self, ranges: dict[str, tuple[int, int]]) -> float:
    """``LeafNode.probability`` before the flat SPN program."""
    bounds = ranges.get(self.column)
    if bounds is None:
        return 1.0
    return range_fraction(self.histogram, bounds[0], bounds[1])


def product_probability(self, ranges: dict[str, tuple[int, int]]) -> float:
    """``ProductNode.probability`` before the flat SPN program."""
    prob = 1.0
    for child in self.children:
        prob *= child.probability(ranges)
        if prob == 0.0:
            return 0.0
    return prob


def sum_probability(self, ranges: dict[str, tuple[int, int]]) -> float:
    """``SumNode.probability`` before the flat SPN program."""
    return float(sum(w * c.probability(ranges)
                     for w, c in zip(self.weights, self.children)))


def range_fraction(histogram, lo: int, hi: int) -> float:
    """``BinnedHistogram.range_fraction`` before SPN leaves answered
    without numpy: the dot product of the bin probabilities with the
    mass the histogram's discretizer gives for [lo, hi]."""
    mass = histogram.discretizer.range_mass(lo, hi)
    return float(np.dot(histogram.probs, mass))


def range_mass(self, lo: int, hi: int) -> np.ndarray:
    """``Discretizer.range_mass`` before it kept its bin widths and
    bisected its values: the per-bin coverage fraction of [lo, hi]."""
    if lo > hi:
        return np.zeros(self.n_bins)
    if self.kind == "value":
        return ((self.values >= lo) & (self.values <= hi)).astype(np.float64)
    # The integer bounds become float64 before the subtraction, which is
    # exact while |lo| and |hi + 1| stay below 2**53.
    overlap = (np.minimum(float(hi + 1), self.edges[1:])
               - np.maximum(float(lo), self.edges[:-1]))
    width = np.diff(self.edges)
    coverage = np.zeros(self.n_bins)
    np.divide(overlap, width, out=coverage, where=width > 0)
    return np.clip(coverage, 0.0, 1.0, out=coverage)


def query_probability(self, allowed: dict[str, np.ndarray]) -> float:
    """``ChowLiuTree.query_probability`` before path-only messages: every
    node's message, by upward message passing, on every call.

    ``allowed[col]`` is a per-bin coverage vector in [0, 1]; columns
    missing from ``allowed`` are unconstrained.
    """
    root = next(c for c, p in self.parent.items() if p is None)

    def message(node: str) -> np.ndarray:
        mass = allowed.get(node, np.ones(self.n_bins[node]))
        vector = np.asarray(mass, dtype=np.float64).copy()
        for child in self.children[node]:
            child_message = message(child)
            vector *= self.cpt[child] @ child_message
        return vector

    return float(np.dot(self.marginal[root], message(root)))


#: (class, method name, recursive implementation) for every method the
#: recursion answers through.
RECURSION = [(LeafNode, "probability", leaf_probability),
             (ProductNode, "probability", product_probability),
             (SumNode, "probability", sum_probability),
             (Discretizer, "range_mass", range_mass),
             (ChowLiuTree, "query_probability", query_probability)]


@contextlib.contextmanager
def recursive_inference():
    """Inside the block, SPNs, Chow–Liu trees and discretizers answer
    through the recursive evaluation above.  A method looked up before
    the block keeps the shipped implementation."""
    saved = [(cls, name, cls.__dict__.get(name)) for cls, name, _ in RECURSION]
    try:
        for cls, name, method in RECURSION:
            setattr(cls, name, method)
        yield
    finally:
        for cls, name, method in saved:
            if method is None:      # inherited: uncover the base's again
                delattr(cls, name)
            else:
                setattr(cls, name, method)


# ----------------------------------------------------------------------
# Table selection from an all-ones mask
# ----------------------------------------------------------------------
def ones_mask_select(table: Table, predicates) -> np.ndarray:
    """``Table.select`` before it started from its first predicate: an
    all-ones mask and-ed with each ``(column, lo, hi)`` range."""
    mask = np.ones(table.num_rows, dtype=bool)
    for column, lo, hi in predicates:
        values = table[column]
        mask &= (values >= lo) & (values <= hi)
    return mask


# ----------------------------------------------------------------------
# The eager join graph
# ----------------------------------------------------------------------
FOREST_ERROR = "join graph must be acyclic (a forest)"


def eager_join_graph(tables, foreign_keys):
    """The networkx join graph and forest check ``Dataset`` ran on every
    construction: a duplicate table pair (either direction) or
    ``nx.is_forest`` failing raises ``ValueError(FOREST_ERROR)``."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(tables)
    for fk in foreign_keys:
        if graph.has_edge(fk.child, fk.parent):
            raise ValueError(FOREST_ERROR)
        graph.add_edge(fk.child, fk.parent, fk=fk)
    if not nx.is_forest(graph):
        raise ValueError(FOREST_ERROR)
    return graph


# ----------------------------------------------------------------------
# The int8 tier's arithmetic, spelled out
# ----------------------------------------------------------------------
def quantized_distances_int32(query_codes: np.ndarray,
                              member_codes: np.ndarray) -> np.ndarray:
    """[Q, N] code-space squared distances with literal int32 accumulation.

    The Gram identity over int8 codes with every product and partial sum
    carried in int32 (int8·int8 ≤ 127² and a sum over ``d`` dimensions
    stays far below 2³¹ for any embedding width the encoder produces).
    ``QuantizedStore.rank_keys`` plus ``‖q‖²`` must give the same integers
    through its float GEMM.
    """
    q = np.atleast_2d(query_codes).astype(np.int32)
    m = np.atleast_2d(member_codes).astype(np.int32)
    cross = q @ m.T
    qn = (q * q).sum(axis=1, dtype=np.int32)
    mn = (m * m).sum(axis=1, dtype=np.int32)
    return qn[:, None] + mn[None, :] - 2 * cross


def dequantize(store, codes: np.ndarray) -> np.ndarray:
    """Float64 reconstruction ``zero_point + scale · codes`` of a
    ``QuantizedStore``'s codes."""
    return store.zero_point + store.scale * np.asarray(codes, np.float64)


def code_distances(store, queries: np.ndarray) -> np.ndarray:
    """[Q, N] code-space squared distances as ``QuantizedStore`` assembled
    them before it ranked by keys: a GEMM of the query codes by the member
    codes at the store's GEMM dtype, then ``‖c‖² − 2·cross + ‖q‖²`` in
    three elementwise passes.  The same integers as
    :func:`quantized_distances_int32`, at the GEMM dtype."""
    dim = store.codes.shape[1]
    dtype = np.float32 if dim <= INT8_EXACT_MAX_DIM else np.float64
    qcodes = store.quantize(queries).astype(dtype)
    codes = store.codes.astype(dtype)
    cross = qcodes @ codes.T
    return ((codes * codes).sum(axis=1)[None, :] - 2.0 * cross
            + (qcodes * qcodes).sum(axis=1)[:, None])


def summed_norm_rerank(queries: np.ndarray, embeddings: np.ndarray,
                       candidates: np.ndarray, k: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """``rerank_candidates`` before it took memoized norms: one
    corpus-wide norm pass when the pools jointly cover the corpus, a sum
    per candidate otherwise, and ``top_k_neighbors`` over the pool."""
    dtype = _common_dtype(queries, embeddings)
    queries = queries.astype(dtype, copy=False)
    gathered = embeddings[candidates].astype(dtype, copy=False)
    dots = (gathered @ queries[:, :, None])[:, :, 0]
    if candidates.size >= len(embeddings):
        cast = np.asarray(embeddings, dtype=dtype)
        member_norms = (cast * cast).sum(axis=1)[candidates]
    else:
        member_norms = (gathered * gathered).sum(axis=2)
    query_norms = (queries * queries).sum(axis=1)
    sq = np.maximum(member_norms + query_norms[:, None] - 2.0 * dots, 0.0)
    distances = np.sqrt(sq)
    local = top_k_neighbors(distances, k)
    return (np.take_along_axis(candidates, local, axis=1),
            np.take_along_axis(distances, local, axis=1))


def code_distance_search(store, queries: np.ndarray,
                         embeddings: np.ndarray, k: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """``QuantizedStore.search`` before rank keys: ``argpartition`` of
    :func:`code_distances` keeps ``k · overfetch`` candidates, and
    :func:`summed_norm_rerank` re-ranks them; a pool covering the corpus
    is the exact scan."""
    embeddings = np.atleast_2d(np.asarray(embeddings))
    queries = _as_float_matrix(queries)
    n = len(embeddings)
    k = min(k, n)
    pool = k * store.config.overfetch
    if pool >= n:
        return exact_search(queries, embeddings, k)
    candidates = np.argpartition(code_distances(store, queries), pool - 1,
                                 axis=1)[:, :pool]
    candidates.sort(axis=1)
    return summed_norm_rerank(queries, embeddings, candidates, k)


# ----------------------------------------------------------------------
# Dataset format 1
# ----------------------------------------------------------------------
def save_dataset_format_1(dataset: Dataset, path: str) -> None:
    """The format-1 writer that ``save_dataset`` replaced: one deflated
    ``.npz`` member per column under ``{table}__{column}`` keys."""
    metadata = {
        "format_version": 1,
        "name": dataset.name,
        "tables": {t.name: t.column_names for t in dataset.tables.values()},
        "foreign_keys": [
            {"child": fk.child, "fk_column": fk.fk_column, "parent": fk.parent}
            for fk in dataset.foreign_keys
        ],
    }
    arrays = {"metadata": np.frombuffer(json.dumps(metadata).encode("utf-8"),
                                        dtype=np.uint8)}
    for table in dataset.tables.values():
        for column, values in table.columns.items():
            arrays[f"{table.name}__{column}"] = values
    np.savez_compressed(path, **arrays)


def load_dataset_format_1(path: str) -> Dataset:
    """The format-1 reader ``load_dataset`` dropped: a ``Dataset`` from one
    ``.npz`` member per column under ``{table}__{column}`` keys."""
    with np.load(path) as data:
        metadata = json.loads(bytes(data["metadata"]).decode("utf-8"))
        if metadata["format_version"] != 1:
            raise ValueError(f"{path}: not a format-1 dataset file")
        tables = [Table(name, {column: data[f"{name}__{column}"]
                               for column in columns})
                  for name, columns in metadata["tables"].items()]
    return Dataset(metadata["name"], tables,
                   [ForeignKey(**fk) for fk in metadata["foreign_keys"]])
