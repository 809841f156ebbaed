"""Feature graphs (Sec. V-A.2): the input representation of a dataset.

A feature graph holds a vertex matrix ``V ∈ R^{n × d}`` (one row of table
features per table, ``d = (k + m)·m + 2``) and an edge matrix
``E ∈ R^{n × n}`` of join correlations.  Graphs are padded to a common
table count for batched GIN encoding and for the Mixup augmentation of the
incremental-learning phase.

For training-scale corpora, :class:`GraphTensorBatcher` pads and stacks the
whole corpus into ``[N, n, d]`` / ``[N, n, n]`` tensors **once** (including
the pre-symmetrized adjacency the GIN encoder needs), so every DML step
slices index arrays instead of re-running :func:`batch_graphs`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from numpy.typing import DTypeLike

from ..db.schema import Dataset
from .features import (join_correlation_matrix, table_feature_vector,
                       table_feature_vector_reference, vertex_dimension)

#: Default maximum number of data columns encoded per table (the paper's m).
DEFAULT_MAX_COLUMNS = 5


@dataclass
class FeatureGraph:
    """Vertex matrix + edge matrix for one dataset."""

    name: str
    vertices: np.ndarray  # [n, d]
    edges: np.ndarray     # [n, n]

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.edges = np.asarray(self.edges, dtype=np.float64)
        if self.vertices.ndim != 2:
            raise ValueError("vertex matrix must be 2-D")
        n = len(self.vertices)
        if self.edges.shape != (n, n):
            raise ValueError(
                f"edge matrix shape {self.edges.shape} != ({n}, {n})")
        self._fingerprint: str | None = None

    @property
    def num_tables(self) -> int:
        return len(self.vertices)

    @property
    def vertex_dim(self) -> int:
        return self.vertices.shape[1]

    def fingerprint(self) -> str:
        """Content hash of the graph, used as the embedding-cache key."""
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(np.ascontiguousarray(self.vertices).tobytes())
            digest.update(np.ascontiguousarray(self.edges).tobytes())
            self._fingerprint = digest.hexdigest()[:32]
        return self._fingerprint

    # ------------------------------------------------------------------
    def padded(self, num_tables: int) -> "FeatureGraph":
        """Zero-pad to ``num_tables`` vertices (Sec. V-A.2 padding)."""
        n = self.num_tables
        if num_tables < n:
            raise ValueError(f"cannot pad {n} tables down to {num_tables}")
        if num_tables == n:
            return self
        vertices = np.zeros((num_tables, self.vertex_dim))
        vertices[:n] = self.vertices
        edges = np.zeros((num_tables, num_tables))
        edges[:n, :n] = self.edges
        return FeatureGraph(self.name, vertices, edges)

    def mix_with(self, other: "FeatureGraph", lam: float) -> "FeatureGraph":
        """Eq. 14 (feature half): G' = λ·G_i + (1−λ)·G_j after padding."""
        n = max(self.num_tables, other.num_tables)
        a = self.padded(n)
        b = other.padded(n)
        return FeatureGraph(
            name=f"mix({self.name},{other.name})",
            vertices=lam * a.vertices + (1.0 - lam) * b.vertices,
            edges=lam * a.edges + (1.0 - lam) * b.edges,
        )

    def flat(self) -> np.ndarray:
        """Flattened [V | E] vector (used by the raw-feature Knn baseline)."""
        return np.concatenate([self.vertices.ravel(), self.edges.ravel()])


def build_feature_graph(dataset: Dataset,
                        max_columns: int = DEFAULT_MAX_COLUMNS) -> FeatureGraph:
    """Run the full feature-engineering pipeline for one dataset."""
    names = sorted(dataset.table_names)
    vertices = np.stack([
        table_feature_vector(dataset[name], max_columns) for name in names
    ])
    edges = join_correlation_matrix(dataset)
    return FeatureGraph(dataset.name, vertices, edges)


def build_feature_graph_reference(dataset: Dataset,
                                  max_columns: int = DEFAULT_MAX_COLUMNS
                                  ) -> FeatureGraph:
    """Scalar-path feature graph (ground truth for equivalence tests)."""
    names = sorted(dataset.table_names)
    vertices = np.stack([
        table_feature_vector_reference(dataset[name], max_columns)
        for name in names
    ])
    edges = join_correlation_matrix(dataset)
    return FeatureGraph(dataset.name, vertices, edges)


def batch_graphs(graphs: list[FeatureGraph], dtype: DTypeLike = np.float64
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad a list of graphs to tensors [B, n, d], [B, n, n], mask [B, n].

    ``dtype`` selects the precision tier of the batch tensors: feature
    graphs are always stored in float64, but the float32 tier halves the
    memory bandwidth of the GIN forward/backward built on top of them.
    """
    if not graphs:
        raise ValueError("empty graph batch")
    dims = {g.vertex_dim for g in graphs}
    if len(dims) != 1:
        raise ValueError(f"inconsistent vertex dimensions in batch: {dims}")
    n_max = max(g.num_tables for g in graphs)
    vertices = np.zeros((len(graphs), n_max, dims.pop()), dtype=dtype)
    edges = np.zeros((len(graphs), n_max, n_max), dtype=dtype)
    mask = np.zeros((len(graphs), n_max), dtype=dtype)
    for i, graph in enumerate(graphs):
        n = graph.num_tables
        vertices[i, :n] = graph.vertices
        edges[i, :n, :n] = graph.edges
        mask[i, :n] = 1.0
    return vertices, edges, mask


class GraphTensorBatcher:
    """Corpus tensor cache for DML training.

    Pads and stacks a whole corpus once — vertices ``[N, n, d]``, the
    **pre-symmetrized** adjacency ``[N, n, n]`` (``E + Eᵀ``, which
    ``GINEncoder.forward`` otherwise recomputes on every call) and the
    vertex mask ``[N, n]``.  :meth:`slice` then serves any training batch as
    pure index-array views; zero-padding to the corpus-wide max table count
    is numerically transparent to the masked GIN encoder.

    ``dtype`` pins the tensor cache to a precision tier (float64 default;
    float32 is the fast tier, matched to the encoder's parameter dtype by
    :class:`~repro.core.dml.DMLTrainer`).
    """

    def __init__(self, graphs: list[FeatureGraph],
                 dtype: DTypeLike = np.float64) -> None:
        vertices, edges, mask = batch_graphs(graphs, dtype=dtype)
        self.dtype = np.dtype(dtype)
        self.vertices = vertices
        self.adjacency = edges + np.swapaxes(edges, 1, 2)
        self.mask = mask

    def __len__(self) -> int:
        return len(self.vertices)

    def slice(self, idx: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batch tensors (vertices, adjacency, mask) for the given indices."""
        return self.vertices[idx], self.adjacency[idx], self.mask[idx]
