"""From-scratch gradient-boosted trees."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ce.gbdt import GradientBoostedTrees, RegressionTree


# --- scalar references: the loops the vectorized kernels replaced ----------

def reference_best_split(X, y, min_samples_leaf=3, min_gain=1e-9):
    """Per-feature, per-cut scan keeping the first cut that beats the best."""
    n, d = X.shape
    total_sum = y.sum()
    total_sq = float(((y - y.mean()) ** 2).sum())
    best = (None, None, 0.0)  # feature, threshold, gain
    for feature in range(d):
        order = np.argsort(X[:, feature], kind="stable")
        xs = X[order, feature]
        ys = y[order]
        prefix = np.cumsum(ys)
        prefix_sq = np.cumsum(ys * ys)
        change = np.nonzero(np.diff(xs) > 0)[0]
        for cut in change:
            left_n = cut + 1
            right_n = n - left_n
            if left_n < min_samples_leaf or right_n < min_samples_leaf:
                continue
            left_sum = prefix[cut]
            right_sum = total_sum - left_sum
            left_sse = prefix_sq[cut] - left_sum ** 2 / left_n
            right_sse = (prefix_sq[-1] - prefix_sq[cut]) - right_sum ** 2 / right_n
            gain = total_sq - (left_sse + right_sse)
            if gain > best[2] + min_gain:
                threshold = 0.5 * (xs[cut] + xs[cut + 1])
                best = (feature, threshold, gain)
    return best


class ReferenceTree:
    """Linked-node tree built with the scalar split and walked row by row."""

    def __init__(self, max_depth=3, min_samples_leaf=3):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf

    def fit(self, X, y):
        self.root = self._build(X, y, 0)
        return self

    def _build(self, X, y, depth):
        node = {"feature": -1, "threshold": 0.0, "left": None, "right": None,
                "value": float(y.mean()) if len(y) else 0.0}
        if depth >= self.max_depth or len(y) < 2 * self.min_samples_leaf:
            return node
        feature, threshold, _ = reference_best_split(X, y, self.min_samples_leaf)
        if feature is None:
            return node
        mask = X[:, feature] <= threshold
        node.update(feature=feature, threshold=threshold,
                    left=self._build(X[mask], y[mask], depth + 1),
                    right=self._build(X[~mask], y[~mask], depth + 1))
        return node

    def predict(self, X):
        out = np.empty(len(X), dtype=np.float64)
        for i, row in enumerate(X):
            node = self.root
            while node["left"] is not None:
                node = (node["left"] if row[node["feature"]] <= node["threshold"]
                        else node["right"])
            out[i] = node["value"]
        return out

    def preorder(self):
        nodes, stack = [], [self.root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if node["left"] is not None:
                stack += [node["right"], node["left"]]
        return nodes


def reference_gbdt(X, y, n_estimators=30, learning_rate=0.3, max_depth=3,
                   min_samples_leaf=3, subsample=1.0, seed=0):
    """Boost ReferenceTrees; return (trees, predict) with the per-tree sum."""
    rng = np.random.default_rng(seed)
    base = float(y.mean()) if len(y) else 0.0
    current = np.full(len(y), base)
    trees = []
    for _ in range(n_estimators):
        residual = y - current
        if subsample < 1.0:
            size = min(len(y), max(2 * min_samples_leaf, int(subsample * len(y))))
            idx = rng.choice(len(y), size=size, replace=False)
        else:
            idx = np.arange(len(y))
        tree = ReferenceTree(max_depth, min_samples_leaf).fit(X[idx], residual[idx])
        trees.append(tree)
        current = current + learning_rate * tree.predict(X)

    def predict(Q):
        out = np.full(len(Q), base)
        for tree in trees:
            out += learning_rate * tree.predict(Q)
        return out
    return trees, predict


def bits(value):
    return None if value is None else np.float64(value).tobytes()


def random_case(rng):
    """A small split problem with ties, duplicates and constant columns."""
    n = int(rng.integers(1, 40))
    d = int(rng.integers(1, 6))
    kind = rng.integers(3)
    if kind == 0:
        X = rng.normal(size=(n, d))
    elif kind == 1:
        X = rng.integers(0, 4, size=(n, d)).astype(np.float64)
    else:
        X = np.repeat(rng.normal(size=(n, 1)), d, axis=1)  # tied features
    X[:, rng.random(d) < 0.2] = 1.5  # constant columns
    if rng.random() < 0.3:
        y = rng.integers(0, 3, size=n).astype(np.float64)
    else:
        y = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
    return X, y


def leaf_of(tree, row):
    node = 0
    while tree.left[node] != node:
        node = (tree.left[node] if row[tree.feature[node]] <= tree.threshold[node]
                else tree.right[node])
    return node


class TestRegressionTree:
    def test_fits_step_function(self):
        x = np.linspace(0, 1, 200).reshape(-1, 1)
        y = (x[:, 0] > 0.5).astype(np.float64)
        tree = RegressionTree(max_depth=2).fit(x, y)
        pred = tree.predict(x)
        assert np.mean((pred - y) ** 2) < 0.01

    def test_constant_target_single_leaf(self):
        x = np.random.default_rng(0).normal(size=(50, 3))
        y = np.full(50, 7.0)
        tree = RegressionTree(max_depth=3).fit(x, y)
        assert len(tree.value) == 1 and tree.depth == 0
        np.testing.assert_allclose(tree.predict(x[:5]), 7.0)

    def test_depth_limit(self):
        x = np.random.default_rng(0).normal(size=(200, 1))
        y = np.sin(x[:, 0] * 10)
        tree = RegressionTree(max_depth=1).fit(x, y)
        # Depth 1 → at most 2 leaves → at most 2 distinct predictions.
        assert len(np.unique(tree.predict(x))) <= 2

    def test_min_samples_leaf(self):
        x = np.arange(10, dtype=np.float64).reshape(-1, 1)
        y = x[:, 0]
        tree = RegressionTree(max_depth=5, min_samples_leaf=4).fit(x, y)
        sizes = np.bincount([leaf_of(tree, row) for row in x])
        assert min(sizes[sizes > 0]) >= 4

    def test_predict_matches_row_walk(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(80, 4))
        tree = RegressionTree(max_depth=4, min_samples_leaf=2).fit(x, x[:, 1] ** 2)
        expected = tree.value[[leaf_of(tree, row) for row in x]]
        assert tree.predict(x).tobytes() == expected.tobytes()


class TestBestSplitMatchesScalar:
    def test_seeded_random_cases(self):
        rng = np.random.default_rng(2024)
        for case in range(600):
            X, y = random_case(rng)
            msl = int(rng.integers(1, 6))
            tree = RegressionTree(min_samples_leaf=msl)
            got = tree._best_split(X, y)
            want = reference_best_split(X, y, msl)
            assert got[0] == want[0], case
            assert bits(got[1]) == bits(want[1]), case
            assert bits(got[2]) == bits(want[2]), case

    def test_square_rounds_like_scalar_power(self):
        """glibc's pow(v, 2) is one ulp off v * v for this v; the kernel must
        square the way the scalar ``left_sum ** 2`` does."""
        X = np.array([[0.0], [1.0]])
        y = np.array([-5.660169488668078, 1.0])
        got = RegressionTree(min_samples_leaf=1)._best_split(X, y)
        assert bits(got[2]) == bits(reference_best_split(X, y, 1)[2])

    def test_too_few_rows_for_two_leaves(self):
        X = np.arange(5, dtype=np.float64)[:, None]
        y = np.arange(5, dtype=np.float64)
        assert RegressionTree(min_samples_leaf=3)._best_split(X, y) == (None, None, 0.0)
        assert reference_best_split(X, y, 3) == (None, None, 0.0)

    def test_constant_columns_have_no_cut(self):
        X = np.full((12, 3), 2.0)
        y = np.arange(12, dtype=np.float64)
        assert RegressionTree(min_samples_leaf=1)._best_split(X, y)[0] is None

    def test_tied_features_pick_the_first(self):
        x = np.random.default_rng(1).normal(size=30)
        X = np.stack([x, x, x], axis=1)
        y = np.sign(x) + 0.1 * x
        feature, _, _ = RegressionTree(min_samples_leaf=1)._best_split(X, y)
        assert feature == 0

    def test_first_beater_is_not_argmax(self):
        """Cut 4's gain tops cut 0's by less than min_gain, so cut 0 stays."""
        X = np.arange(6, dtype=np.float64)[:, None]
        y = np.array([0, 3, 0, 3, 0, 3.5])
        tree = RegressionTree(min_samples_leaf=1, min_gain=2.0)
        feature, threshold, gain = tree._best_split(X, y)
        want = reference_best_split(X, y, 1, min_gain=2.0)
        assert (feature, threshold) == (0, 0.5) == want[:2]
        assert bits(gain) == bits(want[2])
        # The argmax would cut before the last row, with a larger gain.
        feature, threshold, top = RegressionTree(
            min_samples_leaf=1, min_gain=0.0)._best_split(X, y)
        assert threshold == 4.5 and gain < top < gain + 2.0


class TestGBDT:
    def test_improves_over_mean_baseline(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(300, 4))
        y = 3 * x[:, 0] + np.sin(x[:, 1] * 6)
        model = GradientBoostedTrees(n_estimators=30, learning_rate=0.3).fit(x, y)
        residual = np.mean((model.predict(x) - y) ** 2)
        baseline = np.var(y)
        assert residual < baseline * 0.1

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 3))
        y = x[:, 0] * 2
        a = GradientBoostedTrees(seed=5, subsample=0.8).fit(x, y).predict(x)
        b = GradientBoostedTrees(seed=5, subsample=0.8).fit(x, y).predict(x)
        np.testing.assert_allclose(a, b)

    def test_predict_shape(self):
        x = np.random.default_rng(0).normal(size=(50, 2))
        model = GradientBoostedTrees(n_estimators=3).fit(x, x[:, 0])
        assert model.predict(x[:7]).shape == (7,)

    def test_no_extrapolation_beyond_targets(self):
        """Trees cannot predict outside the training target range —
        the failure mode behind LW-XGB's Q-error in the paper."""
        x = np.linspace(0, 1, 100).reshape(-1, 1)
        y = x[:, 0] * 10
        model = GradientBoostedTrees(n_estimators=20).fit(x, y)
        far = model.predict(np.array([[100.0]]))[0]
        assert far <= y.max() + 1e-6

    def test_shrinkage_slows_fit(self):
        x = np.random.default_rng(2).normal(size=(150, 2))
        y = x[:, 0]
        fast = GradientBoostedTrees(n_estimators=3, learning_rate=1.0).fit(x, y)
        slow = GradientBoostedTrees(n_estimators=3, learning_rate=0.05).fit(x, y)
        assert (np.mean((fast.predict(x) - y) ** 2)
                < np.mean((slow.predict(x) - y) ** 2))

    def test_subsample_on_fewer_rows_than_two_leaves(self):
        """The subsample size is capped at the row count."""
        x = np.arange(5, dtype=np.float64)[:, None]
        model = GradientBoostedTrees(subsample=0.5).fit(x, x[:, 0])
        assert model.predict(x).shape == (5,)

    def test_unfitted_predicts_zero(self):
        assert GradientBoostedTrees().predict(np.ones((3, 2))).tolist() == [0.0] * 3


ENSEMBLES = {
    "lwxgb-like": dict(n=60, d=40, kwargs={}),
    "deep": dict(n=120, d=5, kwargs=dict(max_depth=5, min_samples_leaf=2)),
    "shallow-leaves": dict(n=30, d=3, kwargs=dict(max_depth=4, min_samples_leaf=8)),
    "subsampled": dict(n=80, d=6, kwargs=dict(subsample=0.7, seed=4)),
    "constant-target": dict(n=40, d=3, kwargs={}),
}


class TestEnsembleMatchesScalar:
    @pytest.mark.parametrize("name", sorted(ENSEMBLES))
    def test_trees_and_predictions_bit_identical(self, name):
        spec = ENSEMBLES[name]
        rng = np.random.default_rng(len(name))
        X = rng.integers(0, 12, size=(spec["n"], spec["d"])).astype(np.float64)
        if name == "constant-target":
            y = np.full(spec["n"], 2.5)
        else:
            y = np.log1p(X[:, 0] * X[:, -1]) + rng.normal(scale=0.3, size=spec["n"])
        model = GradientBoostedTrees(**spec["kwargs"]).fit(X, y)
        trees, reference_predict = reference_gbdt(X, y, **spec["kwargs"])
        for tree, ref in zip(model.trees, trees):
            nodes = ref.preorder()
            assert tree.value.tobytes() == np.array([v["value"] for v in nodes]).tobytes()
            inner = tree.left != np.arange(len(tree.value))
            assert tree.feature[inner].tolist() == [v["feature"] for v in nodes
                                                    if v["left"] is not None]
            assert tree.threshold[inner].tobytes() == np.array(
                [v["threshold"] for v in nodes if v["left"] is not None]).tobytes()
        Q = rng.integers(-1, 14, size=(60, spec["d"])).astype(np.float64)
        for rows in (Q[:1], Q):
            assert model.predict(rows).tobytes() == reference_predict(rows).tobytes()
        if name == "constant-target":
            assert all(len(tree.value) == 1 for tree in model.trees)
        if name == "shallow-leaves":
            assert min(tree.depth for tree in model.trees) < model.max_depth
