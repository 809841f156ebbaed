"""Gradient-boosted regression trees, from scratch.

A CPU re-implementation of the XGBoost-style regressor behind LW-XGB.  With
squared loss, second-order boosting reduces to fitting each tree to the
current residuals with variance-reduction splits, which is what we implement
(exact greedy splits over sorted feature values, depth- and leaf-size
bounded, shrinkage between rounds).

Split rule.  A node's candidate cuts lie between consecutive distinct values
of each feature's stable sort order and leave at least ``min_samples_leaf``
rows on either side.  Scanning features in column order, and the cuts of a
feature in sorted order, the split is the *first* cut whose gain beats the
running best (initially 0) by more than ``min_gain``.  That is not the
argmax: a later cut within ``min_gain`` of the best does not displace it.
``RegressionTree._best_split`` sorts all columns at once, computes the gain
of every candidate cut in scan order in one pass, and replays the rule over
the running-maximum records of those gains, the only cuts the rule can pick
when ``min_gain >= 0``.

Traversal.  A fitted tree is packed in preorder into node arrays
(``feature``, ``threshold``, ``left``, ``right``, ``value``); a leaf's
children are the leaf itself, so a row that reaches one stays there.
``GradientBoostedTrees`` concatenates its trees' arrays and walks every row
through every tree at once, one level per step, then adds the base
prediction and the shrunken leaf values in tree order.
"""

from __future__ import annotations

import numpy as np


def _descend(feature: np.ndarray, threshold: np.ndarray, left: np.ndarray,
             right: np.ndarray, roots: np.ndarray, X: np.ndarray,
             steps: int) -> np.ndarray:
    """Node index each row of ``X`` reaches from each root, ``[len(X), len(roots)]``."""
    node = np.broadcast_to(roots, (len(X), len(roots)))
    rows = np.arange(len(X))[:, None]
    for _ in range(steps):
        go_left = X[rows, feature[node]] <= threshold[node]
        node = np.where(go_left, left[node], right[node])
    return node


class RegressionTree:
    """A single variance-reduction regression tree."""

    def __init__(self, max_depth: int = 3, min_samples_leaf: int = 3,
                 min_gain: float = 1e-9):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RegressionTree":
        nodes: list[tuple[int, float, int, int, float]] = []
        self.depth = 0  # deepest leaf: the steps a traversal needs
        self._build(X, y, 0, nodes)
        feature, threshold, left, right, value = zip(*nodes)
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=np.float64)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.value = np.array(value, dtype=np.float64)
        return self

    def _best_split(self, X: np.ndarray, y: np.ndarray):
        n = len(X)
        best = (None, None, 0.0)  # feature, threshold, gain
        if n < 2:
            return best
        total_sum = y.sum()
        total_sq = float(((y - y.mean()) ** 2).sum())
        order = np.argsort(X, axis=0, kind="stable")
        xs = np.take_along_axis(X, order, axis=0)
        ys = y[order]
        prefix = np.cumsum(ys, axis=0)
        prefix_sq = np.cumsum(ys * ys, axis=0)
        # Candidate splits only where the feature value changes.  Cut c
        # follows sorted row c; nonzero over the transpose lists the cuts in
        # scan order, feature by feature.
        sizes = np.arange(1, n)[:, None]
        valid = ((np.diff(xs, axis=0) > 0) & (sizes >= self.min_samples_leaf)
                 & (n - sizes >= self.min_samples_leaf))
        features, cuts = np.nonzero(valid.T)
        left_n = cuts + 1
        right_n = n - left_n
        left_sum = prefix[cuts, features]
        right_sum = total_sum - left_sum
        # float_power squares through libm pow, as ``x ** 2`` on a float64
        # scalar does; ``**`` on an array squares by multiplication, which
        # differs from pow in the last bit for some x.
        left_sse = prefix_sq[cuts, features] - np.float_power(left_sum, 2) / left_n
        right_sse = ((prefix_sq[-1, features] - prefix_sq[cuts, features])
                     - np.float_power(right_sum, 2) / right_n)
        gains = total_sq - (left_sse + right_sse)
        # fmax skips NaN gains, which never win a comparison in the scan.
        running = np.fmax.accumulate(np.concatenate(([0.0], gains[:-1])))
        for at in np.flatnonzero(gains > running):
            if gains[at] > best[2] + self.min_gain:
                feature, cut = int(features[at]), cuts[at]
                threshold = 0.5 * (xs[cut, feature] + xs[cut + 1, feature])
                best = (feature, threshold, gains[at])
        return best

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int,
               nodes: list[tuple[int, float, int, int, float]]) -> int:
        """Append the subtree's nodes to ``nodes`` in preorder; return its root."""
        index = len(nodes)
        value = float(y.mean()) if len(y) else 0.0
        nodes.append((0, 0.0, index, index, value))
        self.depth = max(self.depth, depth)
        if depth >= self.max_depth or len(y) < 2 * self.min_samples_leaf:
            return index
        feature, threshold, gain = self._best_split(X, y)
        if feature is None:
            return index
        mask = X[:, feature] <= threshold
        left = self._build(X[mask], y[mask], depth + 1, nodes)
        right = self._build(X[~mask], y[~mask], depth + 1, nodes)
        nodes[index] = (feature, threshold, left, right, value)
        return index

    def predict(self, X: np.ndarray) -> np.ndarray:
        leaf = _descend(self.feature, self.threshold, self.left, self.right,
                        np.zeros(1, dtype=np.intp), np.asarray(X), self.depth)
        return self.value[leaf[:, 0]]


class GradientBoostedTrees:
    """Least-squares gradient boosting with shrinkage."""

    def __init__(self, n_estimators: int = 30, learning_rate: float = 0.3,
                 max_depth: int = 3, min_samples_leaf: int = 3,
                 subsample: float = 1.0, seed: int = 0):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.seed = seed
        self.base_prediction = 0.0
        self.trees: list[RegressionTree] = []
        self._pack()

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        rng = np.random.default_rng(self.seed)
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.base_prediction = float(y.mean()) if len(y) else 0.0
        current = np.full(len(y), self.base_prediction)
        self.trees = []
        for _ in range(self.n_estimators):
            residual = y - current
            if self.subsample < 1.0:
                size = min(len(y), max(2 * self.min_samples_leaf,
                                       int(self.subsample * len(y))))
                idx = rng.choice(len(y), size=size, replace=False)
            else:
                idx = np.arange(len(y))
            tree = RegressionTree(self.max_depth, self.min_samples_leaf)
            tree.fit(X[idx], residual[idx])
            self.trees.append(tree)
            current = current + self.learning_rate * tree.predict(X)
        self._pack()
        return self

    def _pack(self) -> None:
        """Concatenate the trees' node arrays, children offset to global indices."""
        trees = self.trees
        sizes = [len(tree.value) for tree in trees]
        roots = np.cumsum([0, *sizes], dtype=np.intp)[:-1]

        def joined(parts: list[np.ndarray], dtype: type) -> np.ndarray:
            return np.concatenate([np.zeros(0, dtype=dtype), *parts])

        self._roots = roots
        self._depth = max((tree.depth for tree in trees), default=0)
        self._feature = joined([t.feature for t in trees], np.intp)
        self._threshold = joined([t.threshold for t in trees], np.float64)
        self._left = joined([t.left + r for t, r in zip(trees, roots)], np.intp)
        self._right = joined([t.right + r for t, r in zip(trees, roots)], np.intp)
        self._value = joined([t.value for t in trees], np.float64)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        leaves = _descend(self._feature, self._threshold, self._left,
                          self._right, self._roots, X, self._depth)
        # One sequential cumsum over [base, lr*v_0, lr*v_1, ...] adds in the
        # same order as accumulating the trees one at a time.
        terms = np.empty((len(X), len(self.trees) + 1))
        terms[:, 0] = self.base_prediction
        terms[:, 1:] = self.learning_rate * self._value[leaves]
        return np.cumsum(terms, axis=1)[:, -1]
