"""Sum-product networks for cardinality estimation (the DeepDB substrate).

A classic SPN structure learner: columns are split into independent groups
via pairwise correlation (product nodes), rows are split via 2-means
clustering (sum nodes), and leaves are exact value histograms.  Probability
of a conjunctive range query is evaluated in closed form by a
:class:`FlatSPN`: the tree compiled, on its first query, to a post-order
program in which only the leaves of the constrained columns and their
ancestors are evaluated, with the recursion's arithmetic in its order.

A value-kind leaf (one bin per distinct value) answers a range with a
Python ``sum`` of its bin probabilities over the bins the range covers,
where the recursion calls ``np.dot(probs, mass)`` on a 0/1 mass.  The two
give the same float:

* every product ``p * 0.0`` or ``p * 1.0`` is exact, with or without a
  fused multiply-add, and adding ``+0.0`` to a non-negative partial sum
  leaves it unchanged, so the dot is the covered bins added in order;
* for fewer than 16 elements OpenBLAS's ``ddot`` runs a plain
  left-to-right loop, as does the builtin ``sum`` (Python 3.11; from
  3.12 it compensates float additions).  Every shipped config caps
  leaves at 14 bins (``max_leaf_bins``); with 16 or more, ``ddot``'s
  unrolled kernel adds in another order and the two may round apart.

On DeepDB fitted to the optimizer loop's 16 datasets (every join
template), all 529 925 bin pairs of the 5 706 value leaves gave the same
float both ways.  Width-kind leaves (equal-width bins, which a range may
cover in part) keep ``np.dot``: their products are not exact, and a
Python sum of them differed from it in 3 696 of 163 200 probed ranges
over those models' 408 width leaves.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from ..utils.rng import rng_from_seed
from .histograms import BinnedHistogram


@dataclass
class SPNConfig:
    min_rows: int = 24
    correlation_threshold: float = 0.1
    max_depth: int = 12
    kmeans_iterations: int = 8
    max_leaf_bins: int = 14
    seed: int = 0


class _SPNNode:
    """Base of the SPN nodes: ``probability`` runs the subtree's program.

    The :class:`FlatSPN` is compiled on the first call, so a node must not
    be changed once it has answered a query.
    """

    _program: FlatSPN | None = None

    def probability(self, ranges: dict[str, tuple[int, int]]) -> float:
        program = self._program
        if program is None:
            program = self._program = FlatSPN(self)
        return program.probability(ranges)


class LeafNode(_SPNNode):
    """Univariate leaf: bounded-resolution histogram over one column."""

    def __init__(self, column: str, values: np.ndarray, max_bins: int = 14):
        self.column = column
        self.histogram = BinnedHistogram(values, max_bins=max_bins)

    def size(self) -> int:
        return 1


class ProductNode(_SPNNode):
    """Independent column groups: P = ∏ children."""

    def __init__(self, children: list):
        self.children = children

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)


class SumNode(_SPNNode):
    """Row-cluster mixture: P = Σ wᵢ·Pᵢ."""

    def __init__(self, weights: list[float], children: list):
        total = float(sum(weights))
        self.weights = [w / total for w in weights]
        self.children = children

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)


class FlatSPN:
    """An SPN compiled to a flat post-order program over numbered slots.

    A query evaluates only the leaves on its constrained columns and their
    ancestors; every other slot keeps the value it has with no predicate,
    computed once here.  The arithmetic is the recursive evaluation's,
    operand for operand, so estimates are bit-identical to it:

    * a value-kind leaf adds its bin probabilities (a tuple of floats)
      left to right from ``0.0`` over the bins that two bisections of its
      values find inside the range.  On up to 15 bins that is the float
      ``np.dot(probs, mass)`` gives on the 0/1 coverage mass (see the
      module docstring), without a BLAS call.  A width-kind leaf calls
      ``range_fraction``, which is ``float(np.dot(probs, mass))``.
    * a product node is ``1.0 · ∏ pᵢ`` and a sum node ``0 + Σ wᵢ·pᵢ``
      (the builtin ``sum``), both in child order.  A product does not
      stop at a zero child: 0.0 times a finite probability is 0.0.
    """

    def __init__(self, root: _SPNNode):
        #: Internal slot -> (child slots, weights; None for a product).
        self._nodes: dict[int, tuple[tuple[int, ...], list[float] | None]] = {}
        #: Column -> its value-kind leaves as (slot, bin values, bin
        #: probabilities): a list of ints and a tuple of floats.
        self._value_leaves: dict[str, list[tuple]] = {}
        #: Column -> its width-kind leaves as (slot, histogram).
        self._width_leaves: dict[str, list[tuple]] = {}
        #: Column -> the internal slots above its leaves.
        self._ancestors: dict[str, set[int]] = {}
        self._slots = 0
        self._compile(root)
        # With no predicate every leaf reads 1.0.
        self._constants = [1.0] * self._slots
        self._evaluate(self._constants, sorted(self._nodes))

    def _compile(self, node: _SPNNode) -> set[str]:
        """Number ``node``'s subtree in post-order; return its columns."""
        if isinstance(node, LeafNode):
            slot = self._slots
            self._slots += 1
            self._ancestors.setdefault(node.column, set())
            histogram = node.histogram
            discretizer = histogram.discretizer
            if discretizer.kind == "value":
                self._value_leaves.setdefault(node.column, []).append(
                    (slot, discretizer.value_list,
                     tuple(histogram.probs.tolist())))
            else:
                self._width_leaves.setdefault(node.column, []).append(
                    (slot, histogram))
            return {node.column}
        if isinstance(node, ProductNode):
            weights = None
        elif isinstance(node, SumNode):
            weights = node.weights
        else:
            raise TypeError(f"not an SPN node: {type(node).__name__}")
        columns: set[str] = set()
        children = []
        for child in node.children:
            columns |= self._compile(child)
            children.append(self._slots - 1)
        slot = self._slots
        self._slots += 1
        self._nodes[slot] = (tuple(children), weights)
        for column in columns:
            self._ancestors[column].add(slot)
        return columns

    def _evaluate(self, values: list[float], slots: list[int]) -> None:
        """Recompute the internal ``slots`` (ascending) in ``values``."""
        nodes = self._nodes
        for slot in slots:
            children, weights = nodes[slot]
            if weights is None:
                prob = 1.0
                for child in children:
                    prob *= values[child]
            else:
                prob = float(sum([w * values[child]
                                  for w, child in zip(weights, children)]))
            values[slot] = prob

    def probability(self, ranges: dict[str, tuple[int, int]]) -> float:
        """P(∧ column ∈ [lo, hi]); columns the SPN lacks are ignored."""
        values = self._constants.copy()
        live: set[int] = set()
        for column, bounds in ranges.items():
            ancestors = self._ancestors.get(column)
            if ancestors is None:
                continue
            live |= ancestors
            lo, hi = bounds[0], bounds[1]
            for slot, value_list, probs in self._value_leaves.get(column, ()):
                values[slot] = sum(probs[bisect_left(value_list, lo):
                                         bisect_right(value_list, hi)], 0.0)
            for slot, histogram in self._width_leaves.get(column, ()):
                values[slot] = histogram.range_fraction(lo, hi)
        self._evaluate(values, sorted(live))
        return values[-1]


def _standardize(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(z, std)``: each column of ``matrix`` centered and divided by its
    std (by 1 where the std is 0), and the column stds."""
    std = matrix.std(axis=0)
    safe = np.where(std == 0, 1.0, std)
    return (matrix - matrix.mean(axis=0)) / safe, std


def _abs_correlation(z: np.ndarray, std: np.ndarray) -> np.ndarray:
    """|Pearson correlation| of the columns standardized as
    :func:`_standardize` returns them; zero-variance columns and the
    diagonal read 0."""
    corr = np.abs(z.T @ z) / max(1, len(z))
    corr[std == 0, :] = 0.0
    corr[:, std == 0] = 0.0
    np.fill_diagonal(corr, 0.0)
    return corr


def _column_groups(corr: np.ndarray, threshold: float) -> list[list[int]]:
    """Connected components of the columns joined where ``corr`` exceeds
    ``threshold``, each sorted, in order of their smallest column."""
    adjacency = corr > threshold
    n = len(adjacency)
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        component = []
        seen[start] = True
        while stack:
            node = stack.pop()
            component.append(node)
            for other in range(n):
                if adjacency[node, other] and not seen[other]:
                    seen[other] = True
                    stack.append(other)
        components.append(sorted(component))
    return components


def _two_means(z: np.ndarray, rng: np.random.Generator,
               iterations: int) -> np.ndarray:
    """Cluster the rows of the standardized matrix ``z`` into two groups;
    returns a boolean assignment array."""
    n = len(z)
    centers = z[rng.choice(n, size=2, replace=False)]
    assign = np.zeros(n, dtype=bool)
    for _ in range(iterations):
        d0 = ((z - centers[0]) ** 2).sum(axis=1)
        d1 = ((z - centers[1]) ** 2).sum(axis=1)
        new_assign = d1 < d0
        if new_assign.all() or (~new_assign).all():
            # Degenerate clustering: split at random.
            new_assign = rng.random(n) < 0.5
        if (new_assign == assign).all():
            assign = new_assign
            break
        assign = new_assign
        centers[0] = z[~assign].mean(axis=0)
        centers[1] = z[assign].mean(axis=0)
    return assign


def build_spn(columns: dict[str, np.ndarray], config: SPNConfig | None = None,
              _depth: int = 0, _rng: np.random.Generator | None = None):
    """Learn an SPN over the given column sample."""
    config = config or SPNConfig()
    rng = _rng if _rng is not None else rng_from_seed(config.seed)
    names = list(columns)
    if not names:
        raise ValueError("cannot build an SPN over zero columns")
    n = len(columns[names[0]])

    if len(names) == 1:
        return LeafNode(names[0], columns[names[0]], config.max_leaf_bins)

    if n < config.min_rows or _depth >= config.max_depth:
        # Assume independence once data is too thin to split further.
        return ProductNode([LeafNode(c, columns[c], config.max_leaf_bins) for c in names])

    matrix = np.stack([columns[c] for c in names], axis=1).astype(np.float64)
    z, std = _standardize(matrix)
    groups = _column_groups(_abs_correlation(z, std),
                            config.correlation_threshold)
    if len(groups) > 1:
        children = []
        for group in groups:
            sub = {names[i]: columns[names[i]] for i in group}
            children.append(build_spn(sub, config, _depth + 1, rng))
        return ProductNode(children)

    assign = _two_means(z, rng, config.kmeans_iterations)
    children = []
    weights = []
    for mask in (~assign, assign):
        count = int(mask.sum())
        if count == 0:
            continue
        sub = {c: columns[c][mask] for c in names}
        weights.append(count)
        children.append(build_spn(sub, config, _depth + 1, rng))
    if len(children) == 1:
        return children[0]
    return SumNode(weights, children)
