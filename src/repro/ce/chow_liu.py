"""Chow–Liu tree-structured Bayesian networks (the BayesCard substrate).

Learns the maximum-mutual-information spanning tree over discretized
columns, stores Laplace-smoothed CPTs along tree edges, and answers
conjunctive box queries exactly by upward message passing.  The tree is
Kruskal's over the column pairs stable-sorted by −MI, rooted at the first
column by a FIFO breadth-first walk that visits each column's tree edges
in the order Kruskal accepted them; ties between equal weights therefore
resolve by pair order, and children are listed in a fixed order, which
the message products below depend on bit for bit.  A subtree with
no constrained column sends the same message to its parent on every
query, so each fitted tree computes those messages once, on its first
query, and a query computes ``cpt @ message`` only on the paths from its
constrained columns to the root.
"""

from __future__ import annotations

from collections import deque

import numpy as np


def mutual_information(a: np.ndarray, b: np.ndarray,
                       bins_a: int, bins_b: int) -> float:
    """Empirical mutual information between two discretized columns."""
    n = len(a)
    if n == 0:
        return 0.0
    joint = np.zeros((bins_a, bins_b))
    np.add.at(joint, (a, b), 1.0)
    joint /= n
    pa = joint.sum(axis=1, keepdims=True)
    pb = joint.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(joint > 0, joint / (pa * pb), 1.0)
        terms = np.where(joint > 0, joint * np.log(ratio), 0.0)
    return float(terms.sum())


class ChowLiuTree:
    """Tree-structured Bayesian network over discretized columns."""

    def __init__(self, alpha: float = 0.1):
        self.alpha = alpha
        self.columns: list[str] = []
        self.n_bins: dict[str, int] = {}
        self.parent: dict[str, str | None] = {}
        self.children: dict[str, list[str]] = {}
        # CPTs: root -> vector P(x); edge child -> matrix P(child | parent)
        # with shape [parent_bins, child_bins].
        self.marginal: dict[str, np.ndarray] = {}
        self.cpt: dict[str, np.ndarray] = {}
        self._inference_ready = False

    def fit(self, ids: dict[str, np.ndarray], n_bins: dict[str, int]) -> "ChowLiuTree":
        self._inference_ready = False
        self.columns = list(ids)
        self.n_bins = dict(n_bins)
        self.marginal = {}
        self.cpt = {}
        n = len(next(iter(ids.values())))

        if len(self.columns) == 1:
            col = self.columns[0]
            self.parent = {col: None}
            self.children = {col: []}
            self.marginal[col] = self._smoothed_marginal(ids[col], n_bins[col])
            return self

        # Kruskal's minimum spanning tree of -MI: pairs in (i, j) order,
        # stable-sorted by weight, joined through a union-find.
        edges: list[tuple[float, str, str]] = []
        for i, a in enumerate(self.columns):
            for b in self.columns[i + 1:]:
                mi = mutual_information(ids[a], ids[b], n_bins[a], n_bins[b])
                edges.append((-mi, a, b))
        edges.sort(key=lambda edge: edge[0])
        component = {c: c for c in self.columns}

        def find(column: str) -> str:
            while component[column] != column:
                component[column] = component[component[column]]
                column = component[column]
            return column

        tree: dict[str, list[str]] = {c: [] for c in self.columns}
        for _, a, b in edges:
            root_a, root_b = find(a), find(b)
            if root_a != root_b:
                component[root_a] = root_b
                tree[a].append(b)
                tree[b].append(a)

        root = self.columns[0]
        self.parent = {root: None}
        self.children = {c: [] for c in self.columns}
        queue = deque([root])
        while queue:
            parent = queue.popleft()
            for child in tree[parent]:
                if child not in self.parent:
                    self.parent[child] = parent
                    self.children[parent].append(child)
                    queue.append(child)

        self.marginal[root] = self._smoothed_marginal(ids[root], n_bins[root])
        for child, parent in self.parent.items():
            if parent is None:
                continue
            self.cpt[child] = self._smoothed_conditional(
                ids[parent], ids[child], n_bins[parent], n_bins[child])
        return self

    # ------------------------------------------------------------------
    def _smoothed_marginal(self, values: np.ndarray, bins: int) -> np.ndarray:
        counts = np.bincount(values, minlength=bins).astype(np.float64)
        counts += self.alpha
        return counts / counts.sum()

    def _smoothed_conditional(self, parent: np.ndarray, child: np.ndarray,
                              parent_bins: int, child_bins: int) -> np.ndarray:
        joint = np.full((parent_bins, child_bins), self.alpha)
        np.add.at(joint, (parent, child), 1.0)
        return joint / joint.sum(axis=1, keepdims=True)

    # ------------------------------------------------------------------
    def _prepare_inference(self) -> None:
        """The root, a post-order, each column's path to the root, and the
        upward message of every subtree with no column constrained."""
        self._root = next(c for c, p in self.parent.items() if p is None)
        order: list[str] = []

        def visit(node: str) -> np.ndarray:
            vector = np.ones(self.n_bins[node])
            for child in self.children[node]:
                up = self._free_up[child] = self.cpt[child] @ visit(child)
                vector *= up
            order.append(node)
            return vector

        self._free_up: dict[str, np.ndarray] = {}
        free_root = visit(self._root)
        self._free_probability = float(np.dot(self.marginal[self._root],
                                              free_root))
        self._order = order
        self._paths: dict[str, list[str]] = {}
        for column in self.columns:
            path, node = [], column
            while node is not None:
                path.append(node)
                node = self.parent[node]
            self._paths[column] = path
        self._inference_ready = True

    def query_probability(self, allowed: dict[str, np.ndarray]) -> float:
        """P(∧ columns in allowed masses) by upward message passing.

        ``allowed[col]`` is a per-bin coverage vector in [0, 1]; columns
        missing from ``allowed`` are unconstrained.  Only the nodes on the
        paths from the constrained columns to the root compute a message;
        an unconstrained subtree sends the message prepared at first use.
        Each node multiplies its mass (or ones) by its children's
        ``cpt @ message`` in child order, so the result is bit-identical
        to the plain recursion.
        """
        if not self._inference_ready:
            self._prepare_inference()
        live: set[str] = set()
        for column in allowed:
            path = self._paths.get(column)
            if path is not None:
                live.update(path)
        if not live:
            return self._free_probability
        messages: dict[str, np.ndarray] = {}
        for node in self._order:
            if node not in live:
                continue
            mass = allowed.get(node)
            vector = (None if mass is None
                      else np.asarray(mass, dtype=np.float64))
            for child in self.children[node]:
                up = (self.cpt[child] @ messages[child] if child in live
                      else self._free_up[child])
                # 1.0 · up == up, so an unconstrained node starts at its
                # first child's message instead of a vector of ones.
                vector = up if vector is None else vector * up
            messages[node] = vector
        return float(np.dot(self.marginal[self._root], messages[self._root]))
