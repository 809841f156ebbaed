"""SPN and Chow–Liu substrates of the data-driven estimators."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ce.chow_liu import ChowLiuTree, mutual_information
from repro.ce.spn import (LeafNode, ProductNode, SPNConfig, SumNode, build_spn)


def correlated_columns(n=2000, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 10, n)
    b = a.copy()
    flip = rng.random(n) < 0.1
    b[flip] = rng.integers(0, 10, flip.sum())
    c = rng.integers(0, 10, n)
    return {"t.a": a, "t.b": b, "t.c": c}


class TestSPNNodes:
    def test_leaf_probability(self):
        leaf = LeafNode("t.a", np.array([1, 1, 2, 4]))
        assert leaf.probability({"t.a": (1, 2)}) == pytest.approx(0.75)
        assert leaf.probability({}) == 1.0

    def test_product_multiplies(self):
        l1 = LeafNode("t.a", np.array([0, 1]))
        l2 = LeafNode("t.b", np.array([0, 1]))
        node = ProductNode([l1, l2])
        assert node.probability({"t.a": (0, 0), "t.b": (0, 0)}) == pytest.approx(0.25)

    def test_sum_weights(self):
        l1 = LeafNode("t.a", np.array([0, 0]))
        l2 = LeafNode("t.a", np.array([1, 1]))
        node = SumNode([3, 1], [l1, l2])
        assert node.probability({"t.a": (0, 0)}) == pytest.approx(0.75)

    def test_size_counts_nodes(self):
        node = ProductNode([LeafNode("t.a", np.array([0])),
                            LeafNode("t.b", np.array([0]))])
        assert node.size() == 3


class TestBuildSPN:
    def test_single_column_is_leaf(self):
        spn = build_spn({"t.a": np.arange(100)})
        assert isinstance(spn, LeafNode)

    def test_probability_bounds(self):
        spn = build_spn(correlated_columns())
        for lo in (0, 3, 7):
            p = spn.probability({"t.a": (lo, lo + 2), "t.c": (0, 5)})
            assert 0.0 <= p <= 1.0

    def test_unconstrained_probability_is_one(self):
        spn = build_spn(correlated_columns())
        assert spn.probability({}) == pytest.approx(1.0, abs=1e-9)

    def test_captures_correlation_better_than_independence(self):
        cols = correlated_columns()
        spn = build_spn(cols, SPNConfig(min_rows=32, correlation_threshold=0.1))
        independent = ProductNode([LeafNode(k, v) for k, v in cols.items()])
        truth = np.mean((cols["t.a"] <= 2) & (cols["t.b"] <= 2))
        ranges = {"t.a": (0, 2), "t.b": (0, 2)}
        assert abs(spn.probability(ranges) - truth) < \
            abs(independent.probability(ranges) - truth)

    def test_min_rows_forces_independence(self):
        cols = {k: v[:10] for k, v in correlated_columns().items()}
        spn = build_spn(cols, SPNConfig(min_rows=64))
        assert isinstance(spn, ProductNode)
        assert all(isinstance(c, LeafNode) for c in spn.children)

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            build_spn({})

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 50))
    def test_probability_always_valid(self, seed):
        rng = np.random.default_rng(seed)
        cols = {f"t.c{i}": rng.integers(0, 8, 300) for i in range(3)}
        spn = build_spn(cols, SPNConfig(seed=seed))
        p = spn.probability({"t.c0": (2, 5), "t.c1": (0, 3), "t.c2": (4, 7)})
        assert 0.0 <= p <= 1.0


class TestMutualInformation:
    def test_independent_near_zero(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, 20_000)
        b = rng.integers(0, 4, 20_000)
        assert mutual_information(a, b, 4, 4) < 0.01

    def test_identical_equals_entropy(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 4, 20_000)
        mi = mutual_information(a, a, 4, 4)
        probs = np.bincount(a, minlength=4) / len(a)
        entropy = -np.sum(probs * np.log(probs))
        assert mi == pytest.approx(entropy, abs=0.01)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 5, 5000)
        b = (a + rng.integers(0, 2, 5000)) % 5
        assert mutual_information(a, b, 5, 5) == \
            pytest.approx(mutual_information(b, a, 5, 5))

    def test_empty(self):
        assert mutual_information(np.array([], dtype=int),
                                  np.array([], dtype=int), 2, 2) == 0.0


class TestChowLiuTree:
    def test_single_column(self):
        rng = np.random.default_rng(0)
        ids = {"a": rng.integers(0, 4, 1000)}
        tree = ChowLiuTree().fit(ids, {"a": 4})
        mass = np.zeros(4)
        mass[0] = 1.0
        expected = np.mean(ids["a"] == 0)
        assert tree.query_probability({"a": mass}) == pytest.approx(expected, abs=0.01)

    def test_unconstrained_is_one(self):
        rng = np.random.default_rng(0)
        ids = {"a": rng.integers(0, 4, 500), "b": rng.integers(0, 3, 500)}
        tree = ChowLiuTree().fit(ids, {"a": 4, "b": 3})
        assert tree.query_probability({}) == pytest.approx(1.0, abs=1e-9)

    def test_tree_is_spanning(self):
        rng = np.random.default_rng(3)
        ids = {f"c{i}": rng.integers(0, 4, 400) for i in range(5)}
        tree = ChowLiuTree().fit(ids, {k: 4 for k in ids})
        roots = [c for c, p in tree.parent.items() if p is None]
        assert len(roots) == 1
        assert set(tree.parent) == set(ids)

    def test_captures_pairwise_dependence(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 6, 4000)
        b = a.copy()
        flip = rng.random(4000) < 0.05
        b[flip] = rng.integers(0, 6, flip.sum())
        ids = {"a": a, "b": b}
        tree = ChowLiuTree(alpha=0.01).fit(ids, {"a": 6, "b": 6})
        mass_a = np.zeros(6); mass_a[0] = 1.0
        mass_b = np.zeros(6); mass_b[0] = 1.0
        truth = np.mean((a == 0) & (b == 0))
        independent = np.mean(a == 0) * np.mean(b == 0)
        estimate = tree.query_probability({"a": mass_a, "b": mass_b})
        assert abs(estimate - truth) < abs(independent - truth)

    def test_query_probability_bounds(self):
        rng = np.random.default_rng(5)
        ids = {f"c{i}": rng.integers(0, 5, 300) for i in range(4)}
        tree = ChowLiuTree().fit(ids, {k: 5 for k in ids})
        allowed = {k: (np.arange(5) < 3).astype(float) for k in ids}
        assert 0.0 <= tree.query_probability(allowed) <= 1.0


def enumerated_probability(tree: ChowLiuTree,
                           allowed: dict[str, np.ndarray]) -> float:
    """Σ over every joint assignment of marginal(root) · Π cpt · Π mass."""
    root = next(c for c, p in tree.parent.items() if p is None)
    total = 0.0
    for values in itertools.product(*(range(tree.n_bins[c])
                                      for c in tree.columns)):
        x = dict(zip(tree.columns, values))
        p = tree.marginal[root][x[root]]
        for child, parent in tree.parent.items():
            if parent is not None:
                p *= tree.cpt[child][x[parent], x[child]]
        for column, mass in allowed.items():
            p *= mass[x[column]]
        total += p
    return total


class TestChowLiuExactInference:
    """Upward message passing equals brute-force enumeration."""

    def test_matches_enumeration_on_random_trees(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            names = [f"c{i}" for i in range(int(rng.integers(1, 5)))]
            bins = {c: int(rng.integers(2, 6)) for c in names}
            base = rng.integers(0, 60, 300)
            ids = {c: (base + rng.integers(0, 2, 300)) % bins[c]
                   for c in names}
            tree = ChowLiuTree(alpha=float(rng.uniform(0.01, 1.0))).fit(
                ids, bins)
            for _ in range(4):
                constrained = [c for c in names if rng.random() < 0.6]
                allowed = {c: rng.random(bins[c]) for c in constrained}
                assert tree.query_probability(allowed) == pytest.approx(
                    enumerated_probability(tree, allowed), abs=1e-12)
