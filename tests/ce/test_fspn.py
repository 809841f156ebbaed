"""FLAT / FSPN estimator: multi-leaves, factorize nodes and the full model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ce import build_model
from repro.ce.base import TrainingContext
from repro.ce.fspn import (FLAT, FLATConfig, FactorizeNode, MultiLeaf,
                           _split_group, build_fspn)
from repro.ce.spn import LeafNode, ProductNode, SPNConfig, SumNode, build_spn
from repro.testbed.metrics import qerror
from repro.workload.query import Query


def correlated_pair(n=3000, seed=0, flip=0.05):
    """Two near-identical columns plus an independent third."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 12, n)
    b = a.copy()
    noise = rng.random(n) < flip
    b[noise] = rng.integers(0, 12, noise.sum())
    c = rng.integers(0, 12, n)
    return {"t.a": a, "t.b": b, "t.c": c}


def weakly_correlated_tail(n=3000, seed=0):
    """``correlated_pair`` plus ``t.d``, weakly tied to ``t.c`` (about
    0.3), and an independent ``t.e``: FLAT factorizes ``t.a``/``t.b`` off
    and the remainder needs row splits."""
    columns = correlated_pair(n, seed)
    rng = np.random.default_rng(seed + 1)
    columns["t.d"] = np.where(rng.random(n) < 0.3, columns["t.c"],
                              rng.integers(0, 12, n))
    columns["t.e"] = rng.integers(0, 12, n)
    return columns


def weak_spn_config(config: FLATConfig) -> SPNConfig:
    """The DeepDB knobs FLAT learns its weakly-correlated remainder with."""
    return SPNConfig(min_rows=config.min_rows,
                     correlation_threshold=config.low_threshold,
                     max_depth=config.max_depth,
                     kmeans_iterations=config.kmeans_iterations,
                     max_leaf_bins=config.max_leaf_bins, seed=config.seed)


def structure(node):
    """An SPN as nested tuples: node kinds, columns, sum weights and leaf
    histograms, so two equal trees compare equal bit for bit."""
    if isinstance(node, LeafNode):
        return ("leaf", node.column, node.histogram.probs.tobytes())
    children = tuple(structure(child) for child in node.children)
    if isinstance(node, SumNode):
        return ("sum", tuple(node.weights), children)
    return ("product", children)


def node_kinds(node):
    """The class names of an SPN's nodes, in pre-order."""
    yield type(node).__name__
    for child in getattr(node, "children", ()):
        yield from node_kinds(child)


class TestMultiLeaf:
    def test_table_is_a_distribution(self):
        leaf = MultiLeaf({"t.a": np.array([0, 0, 1, 2]),
                          "t.b": np.array([5, 5, 6, 7])})
        assert leaf.table.sum() == pytest.approx(1.0)
        assert (leaf.table >= 0).all()

    def test_unconstrained_probability_is_one(self):
        cols = correlated_pair()
        leaf = MultiLeaf({k: cols[k] for k in ("t.a", "t.b")})
        assert leaf.probability({}) == pytest.approx(1.0)

    def test_point_probability_matches_empirical(self):
        a = np.array([0, 0, 0, 1])
        b = np.array([0, 0, 1, 1])
        leaf = MultiLeaf({"t.a": a, "t.b": b})
        assert leaf.probability({"t.a": (0, 0), "t.b": (0, 0)}) == pytest.approx(0.5)
        assert leaf.probability({"t.a": (0, 0), "t.b": (1, 1)}) == pytest.approx(0.25)
        assert leaf.probability({"t.a": (1, 1), "t.b": (0, 0)}) == pytest.approx(0.0)

    def test_captures_correlation_independence_misses(self):
        """P(a=v, b=v) should track the joint, not the product of marginals."""
        cols = correlated_pair(flip=0.0)  # perfectly correlated
        # 16 bins >= the 12-value domain, so the discretizer is exact and
        # the joint table reflects the dependence without binning blur.
        joint = MultiLeaf({"t.a": cols["t.a"], "t.b": cols["t.b"]},
                          bins_per_dim=16)
        p_joint = joint.probability({"t.a": (3, 3), "t.b": (3, 3)})
        marginal = joint.probability({"t.a": (3, 3)})
        # Exact dependence: P(a=3, b=3) == P(a=3) >> P(a=3)·P(b=3).
        assert p_joint == pytest.approx(marginal, rel=1e-9)
        assert p_joint > marginal * marginal * 2

    def test_partial_ranges_marginalize(self):
        cols = correlated_pair()
        leaf = MultiLeaf({k: cols[k] for k in ("t.a", "t.b")}, bins_per_dim=16)
        # Marginal over t.a alone equals the empirical frequency.
        empirical = float(np.mean((cols["t.a"] >= 2) & (cols["t.a"] <= 5)))
        assert leaf.probability({"t.a": (2, 5)}) == pytest.approx(empirical, abs=1e-9)

    def test_three_dimensional_group(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 6, 2000)
        leaf = MultiLeaf({"t.a": a, "t.b": a, "t.c": a})
        assert leaf.probability({}) == pytest.approx(1.0)
        p = leaf.probability({"t.a": (0, 2), "t.b": (0, 2), "t.c": (0, 2)})
        empirical = float(np.mean(a <= 2))
        assert p == pytest.approx(empirical, abs=0.03)

    @given(lo=st.integers(0, 11), width=st.integers(0, 11))
    @settings(max_examples=25, deadline=None)
    def test_probability_in_unit_interval(self, lo, width):
        cols = correlated_pair(n=500)
        leaf = MultiLeaf({k: cols[k] for k in ("t.a", "t.b")})
        p = leaf.probability({"t.a": (lo, lo + width)})
        assert 0.0 <= p <= 1.0

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            MultiLeaf({})


class TestSplitGroup:
    def test_small_group_untouched(self):
        corr = np.zeros((4, 4))
        assert _split_group([0, 1, 2], corr, max_group=3) == [[0, 1, 2]]

    def test_oversized_group_chunked(self):
        n = 5
        corr = np.random.default_rng(0).random((n, n))
        corr = (corr + corr.T) / 2
        chunks = _split_group(list(range(n)), corr, max_group=2)
        flattened = sorted(c for chunk in chunks for c in chunk)
        assert flattened == list(range(n))
        assert all(len(c) <= 2 for c in chunks)

    def test_strongest_edge_stays_together(self):
        corr = np.zeros((4, 4))
        corr[1, 3] = corr[3, 1] = 0.99
        corr[0, 2] = corr[2, 0] = 0.7
        chunks = _split_group([0, 1, 2, 3], corr, max_group=2)
        assert [1, 3] in chunks
        assert [0, 2] in chunks


class TestBuildFSPN:
    def test_single_column_is_leaf(self):
        node = build_fspn({"t.a": np.arange(50)})
        assert isinstance(node, LeafNode)

    def test_correlated_pair_becomes_factorize(self):
        node = build_fspn(correlated_pair())
        assert isinstance(node, FactorizeNode)
        joint_cols = {c for leaf in node.joint_children for c in leaf.names}
        assert joint_cols == {"t.a", "t.b"}

    def test_independent_columns_skip_factorize(self):
        rng = np.random.default_rng(7)
        cols = {f"t.c{i}": rng.integers(0, 20, 1500) for i in range(3)}
        node = build_fspn(cols)
        assert not isinstance(node, FactorizeNode)
        # With nothing to factorize, FLAT is DeepDB's SPN under its knobs.
        assert structure(node) == structure(
            build_spn(cols, weak_spn_config(FLATConfig())))

    def test_unconstrained_probability_is_one(self):
        node = build_fspn(correlated_pair())
        assert node.probability({}) == pytest.approx(1.0, abs=1e-9)

    def test_beats_independence_on_anticorrelated_query(self):
        """The headline FLAT property: joint modeling of correlated pairs."""
        cols = correlated_pair(flip=0.0)
        fspn = build_fspn(cols)
        # a == b always, so P(a in [0,2] AND b in [9,11]) is truly 0.
        contradiction = fspn.probability({"t.a": (0, 2), "t.b": (9, 11)})
        independent = ProductNode([LeafNode("t.a", cols["t.a"]),
                                   LeafNode("t.b", cols["t.b"])])
        indep_estimate = independent.probability(
            {"t.a": (0, 2), "t.b": (9, 11)})
        assert contradiction < indep_estimate / 3

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError):
            build_fspn({})

    def test_probability_monotone_in_range_width(self):
        node = build_fspn(correlated_pair())
        widths = [node.probability({"t.a": (0, hi)}) for hi in range(12)]
        assert all(b >= a - 1e-9 for a, b in zip(widths, widths[1:]))

    def test_size_positive(self):
        node = build_fspn(correlated_pair())
        assert node.size() >= 3

    @pytest.mark.parametrize("seed", [0, 5])
    def test_remainder_is_deepdbs_spn_of_the_weak_columns(self, seed):
        columns = weakly_correlated_tail(seed=seed)
        config = FLATConfig(seed=seed)
        node = build_fspn(columns, config)
        assert isinstance(node, FactorizeNode)
        assert [leaf.names for leaf in node.joint_children] == [["t.a", "t.b"]]
        weak = {c: columns[c] for c in ("t.c", "t.d", "t.e")}
        expected = build_spn(weak, weak_spn_config(config))
        assert structure(node.rest) == structure(expected)
        # The remainder splits rows, so the shared generator is exercised.
        assert "SumNode" in node_kinds(expected)

    def test_max_group_respected(self):
        rng = np.random.default_rng(11)
        base = rng.integers(0, 10, 2500)
        cols = {f"t.c{i}": base.copy() for i in range(5)}
        node = build_fspn(cols, FLATConfig(max_group=2))
        assert isinstance(node, FactorizeNode)
        assert all(len(leaf.names) <= 2 for leaf in node.joint_children)


class TestFLATModel:
    def test_registered(self):
        model = build_model("FLAT")
        assert isinstance(model, FLAT)
        assert model.data_driven and not model.query_driven

    def test_estimates_on_dataset(self, small_dataset, small_workload):
        ctx = TrainingContext.build(small_dataset, small_workload)
        model = FLAT()
        model.fit(ctx)
        test = small_workload.test
        true = np.array([q.true_cardinality for q in test], dtype=np.float64)
        estimates = model.estimate_batch(test)
        assert np.all(np.isfinite(estimates)) and np.all(estimates >= 1.0)
        mean_q = float(qerror(estimates, true).mean())
        ones_q = float(qerror(np.ones_like(true), true).mean())
        assert mean_q < ones_q / 2

    def test_single_table_accuracy(self, single_dataset, single_workload):
        ctx = TrainingContext.build(single_dataset, single_workload)
        model = FLAT()
        model.fit(ctx)
        test = single_workload.test
        true = np.array([q.true_cardinality for q in test], dtype=np.float64)
        estimates = model.estimate_batch(test)
        assert float(qerror(estimates, true).mean()) < 5.0

    def test_unseen_template_fitted_lazily(self, small_dataset,
                                           small_workload):
        ctx = TrainingContext.build(small_dataset, small_workload)
        model = FLAT()
        model.fit(ctx)
        single = Query(tables=(small_dataset.table_names[0],))
        assert model.estimate(single) >= 1.0
