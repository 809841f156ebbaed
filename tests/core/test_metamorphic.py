"""Metamorphic invariance suite for the serving stack.

One parametrized harness runs every property against both serving tiers —
the exact scan and the int8 candidate tier (a size threshold below the
corpus size attaches it, so each tier is exercised deterministically) —
each at the float64 reference precision and at the float32 precision
tier (``dtype="float32"``, which trains and serves at float32):

* advisor level: recommendations are invariant under dataset **row
  permutation** (column statistics are order-free), **column permutation**
  (the vertex feature layout moves, but the learned metric keeps the
  recommendation stable) and **duplicate-query batching** (batched serving
  must agree with itself and with single-query serving);
* search level: KNN rankings are invariant under a **global embedding
  translation** (Euclidean distances are translation-free; the int8 tier
  must preserve that through its quantization).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.advisor import AutoCE, AutoCEConfig
from repro.core.dml import DMLConfig
from repro.core.serving import (ANNConfig, QuantizationConfig,
                                QuantizedStore, exact_search)
from repro.datagen.multi_table import generate_dataset
from repro.datagen.spec import random_spec
from repro.db.schema import Dataset
from repro.db.table import Table
from repro.testbed.scores import DatasetLabel

MODELS = ("A", "B", "C")
PATHS = ("exact", "quantized", "exact-float32", "quantized-float32")


# ----------------------------------------------------------------------
# Dataset transformations (the metamorphic relations)
# ----------------------------------------------------------------------
def permute_rows(dataset: Dataset, seed: int) -> Dataset:
    """Jointly permute the data-column rows of every table."""
    rng = np.random.default_rng(seed)
    tables = []
    for name, table in dataset.tables.items():
        perm = rng.permutation(table.num_rows)
        data = set(table.data_columns())
        tables.append(Table(name, {
            c: (v[perm] if c in data else v)
            for c, v in table.columns.items()}))
    return Dataset(dataset.name, tables, dataset.foreign_keys)


def permute_columns(dataset: Dataset, seed: int) -> Dataset:
    """Reorder the data columns of every table (contents untouched)."""
    rng = np.random.default_rng(seed)
    tables = []
    for name, table in dataset.tables.items():
        data = table.data_columns()
        shuffled = [data[i] for i in rng.permutation(len(data))]
        keys = [c for c in table.columns if c not in data]
        tables.append(Table(name, {c: table.columns[c]
                                   for c in keys + shuffled}))
    return Dataset(dataset.name, tables, dataset.foreign_keys)


# ----------------------------------------------------------------------
# The two serving tiers, at two precisions
# ----------------------------------------------------------------------
def path_dtype(path: str) -> np.dtype:
    """The precision a path serves at ("<tier>" or "<tier>-float32")."""
    return np.dtype(np.float32 if path.endswith("-float32")
                    else np.float64)


def path_config(path: str) -> AutoCEConfig:
    config = AutoCEConfig(hidden_dim=16, embedding_dim=8, knn_k=3,
                          use_incremental=False,
                          dml=DMLConfig(epochs=3, batch_size=8), seed=0)
    tier = path.removesuffix("-float32")
    if tier == "exact":
        config.ann = ANNConfig(threshold=0)
    elif tier == "quantized":
        config.ann = ANNConfig(threshold=8)
        config.quantization = QuantizationConfig(overfetch=4)
    else:
        raise ValueError(path)
    if path_dtype(path) == np.float32:
        config.dtype = "float32"
    return config


@pytest.fixture(scope="module")
def corpus():
    datasets = [
        generate_dataset(random_spec(2000 + i, ranges={"num_tables": (1, 4)}))
        for i in range(36)
    ]
    labels = []
    for i in range(36):
        qerr = {0: [1.1, 3.0, 6.0], 1: [6.0, 1.1, 3.0],
                2: [3.0, 6.0, 1.1]}[i % 3]
        labels.append(DatasetLabel(MODELS, qerr, [0.001, 0.002, 0.003]))
    return datasets, labels


@pytest.fixture(scope="module")
def advisors(corpus):
    """One fitted advisor per serving path (identical weights: same seed)."""
    datasets, labels = corpus
    built = {}
    for path in PATHS:
        advisor = AutoCE(path_config(path))
        advisor.fit(datasets, labels)
        built[path] = advisor
    # Every path must actually run the tier and precision it names.
    for path, advisor in built.items():
        if path.startswith("exact"):
            assert advisor.rcs.index is None
        else:
            assert isinstance(advisor.rcs.index, QuantizedStore)
        assert advisor.rcs.embeddings.dtype == path_dtype(path)
    return built


def recommendation_view(rec):
    """The externally observable recommendation: winner + full ranking."""
    return rec.model, [name for name, _ in rec.ranking()]


# ----------------------------------------------------------------------
# Advisor-level invariances
# ----------------------------------------------------------------------
@pytest.mark.parametrize("path", PATHS)
class TestRecommendationInvariance:
    def test_row_permutation(self, advisors, corpus, path):
        advisor = advisors[path]
        queries = corpus[0][:6]
        base = advisor.recommend_batch(queries, 0.9)
        permuted = advisor.recommend_batch(
            [permute_rows(d, 7 + i) for i, d in enumerate(queries)], 0.9)
        for a, b in zip(base, permuted):
            assert recommendation_view(a) == recommendation_view(b)

    def test_column_permutation(self, advisors, corpus, path):
        advisor = advisors[path]
        queries = corpus[0][:6]
        base = advisor.recommend_batch(queries, 0.9)
        permuted = advisor.recommend_batch(
            [permute_columns(d, 11 + i) for i, d in enumerate(queries)], 0.9)
        for a, b in zip(base, permuted):
            assert recommendation_view(a) == recommendation_view(b)

    def test_duplicate_query_batching(self, advisors, corpus, path):
        advisor = advisors[path]
        unique = corpus[0][:4]
        pattern = [0, 1, 0, 2, 3, 1, 0, 2]
        batched = advisor.recommend_batch([unique[i] for i in pattern], 0.9)
        singles = advisor.recommend_batch(unique, 0.9)
        for position, i in enumerate(pattern):
            a, b = batched[position], singles[i]
            assert recommendation_view(a) == recommendation_view(b)
            np.testing.assert_array_equal(a.neighbor_indices,
                                          b.neighbor_indices)
            np.testing.assert_array_equal(a.score_vector, b.score_vector)

    def test_single_and_batched_serving_agree(self, advisors, corpus, path):
        advisor = advisors[path]
        queries = corpus[0][:4]
        batched = advisor.recommend_batch(queries, 0.9)
        for dataset, b in zip(queries, batched):
            a = advisor.recommend(dataset, 0.9)
            assert recommendation_view(a) == recommendation_view(b)
            np.testing.assert_array_equal(a.neighbor_indices,
                                          b.neighbor_indices)


# ----------------------------------------------------------------------
# Search-level invariance: global embedding translation
# ----------------------------------------------------------------------
def family_cloud(seed: int = 0, families: int = 64, per_family: int = 24,
                 dim: int = 16):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(families, dim)) * 4.0
    members = (centers[:, None, :]
               + 0.25 * rng.normal(size=(families, per_family, dim))
               ).reshape(-1, dim)
    queries = members[::per_family] + 0.05 * rng.normal(size=(families, dim))
    return members, queries


def make_searcher(path: str, members: np.ndarray):
    tier = path.removesuffix("-float32")
    if tier == "exact":
        return lambda queries, k: exact_search(queries, members, k)
    if tier == "quantized":
        store = QuantizedStore(members, QuantizationConfig(overfetch=8))
        return lambda queries, k: store.search(queries, members, k)
    raise ValueError(path)


@pytest.mark.parametrize("path", PATHS)
def test_translation_invariance_of_knn_rankings(path):
    dtype = path_dtype(path)
    members, queries = (a.astype(dtype) for a in family_cloud())
    shift = (np.random.default_rng(42).normal(size=members.shape[1])
             * 3.0).astype(dtype)
    base_idx, base_dist = make_searcher(path, members)(queries, 5)
    moved_idx, moved_dist = make_searcher(path, members + shift)(
        queries + shift, 5)
    assert base_dist.dtype == moved_dist.dtype == dtype
    np.testing.assert_array_equal(base_idx, moved_idx)
    # Distances are translation-free too, up to Gram-identity cancellation
    # noise on the shifted coordinates.
    if dtype == np.float64:
        np.testing.assert_allclose(base_dist, moved_dist,
                                   rtol=1e-5, atol=1e-7)
    else:
        # In float32 that noise scales with epsilon times the squared
        # norms of the shifted operands.
        norms = float((np.vstack([members, members + shift])
                       .astype(np.float64) ** 2).sum(axis=1).max())
        np.testing.assert_allclose(
            base_dist.astype(np.float64) ** 2,
            moved_dist.astype(np.float64) ** 2,
            atol=64 * np.finfo(np.float32).eps * norms)
