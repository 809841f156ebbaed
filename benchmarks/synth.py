"""Synthetic labeled corpora for the fast-path benchmarks.

Used by ``run_benchmarks.py`` (the before/after runner behind
``results/BENCH_micro.json``), so its rows share one workload.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import FeatureGraph
from repro.testbed.scores import DatasetLabel

MODELS = ("A", "B", "C")


def synthetic_corpus(n: int, dim: int = 57, seed: int = 0):
    """Labeled feature graphs with 1–5 tables (no testbed labeling needed).

    ``dim=57`` matches ``vertex_dimension(max_columns=5)``, the paper's
    default feature layout.
    """
    rng = np.random.default_rng(seed)
    graphs, labels = [], []
    for i in range(n):
        tables = int(rng.integers(1, 6))
        vertices = rng.normal(size=(tables, dim))
        edges = np.zeros((tables, tables))
        for t in range(1, tables):
            edges[t - 1, t] = rng.uniform(0.2, 1.0)
        graphs.append(FeatureGraph(f"bench{i}", vertices, edges))
        labels.append(DatasetLabel(MODELS, rng.uniform(1, 10, 3),
                                   rng.uniform(0.001, 0.01, 3)))
    return graphs, labels


def family_corpus(n: int, families: int = 256, dim: int = 57,
                  noise: float = 0.15, seed: int = 0):
    """A CardBench-style labeled corpus of schema *families*.

    Large real-world labeled corpora are dominated by families of similar
    datasets (tenants running variations of the same schema; snapshots of
    one database over time).  Each family here is a base feature graph whose
    members perturb the base column statistics by ``noise``; members of one
    family share a label up to noise as well.  This is the workload regime
    where approximate KNN pays off — and it is what the ANN serving bench
    measures recall/speedup on.
    """
    rng = np.random.default_rng(seed)
    graphs, labels = [], []
    for f in range(families):
        tables = int(rng.integers(1, 6))
        base_vertices = rng.normal(size=(tables, dim))
        base_qerror = rng.uniform(1, 10, len(MODELS))
        base_latency = rng.uniform(0.001, 0.01, len(MODELS))
        edges = np.zeros((tables, tables))
        for t in range(1, tables):
            edges[t - 1, t] = rng.uniform(0.2, 1.0)
        members = n // families + (1 if f < n % families else 0)
        for m in range(members):
            vertices = base_vertices + noise * rng.normal(size=base_vertices.shape)
            graphs.append(FeatureGraph(f"family{f}_m{m}", vertices, edges))
            labels.append(DatasetLabel(
                MODELS,
                base_qerror * rng.uniform(0.9, 1.1, len(MODELS)),
                base_latency * rng.uniform(0.9, 1.1, len(MODELS))))
    order = rng.permutation(len(graphs))
    return [graphs[i] for i in order], [labels[i] for i in order]

