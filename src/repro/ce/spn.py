"""Sum-product networks for cardinality estimation (the DeepDB substrate).

A classic SPN structure learner: columns are split into independent groups
via pairwise correlation (product nodes), rows are split via 2-means
clustering (sum nodes), and leaves are exact value histograms.  Probability
of a conjunctive range query is evaluated in closed form by a
:class:`FlatSPN`: the tree compiled, on its first query, to a post-order
program in which only the leaves of the constrained columns and their
ancestors are evaluated, with the recursion's arithmetic in its order.

A leaf answers a range without numpy, where the recursion calls
``np.dot(probs, mass)`` on the leaf's per-bin coverage mass.  On this build
(OpenBLAS 0.3.31's Haswell kernel) ``np.dot`` of at most 15 elements is a
left-to-right fused multiply-add (FMA) from ``0.0``: on 20 000 random
probes (1–15 probabilities against masses in [0, 1), three in ten of them
zero) it matched a sequential FMA computed exactly with
``fractions.Fraction`` 20 000 times, and a left-to-right sum of rounded
products only 15 187 times.  Every shipped config caps leaves at 14 bins
(``max_leaf_bins``); with 16 or more, ``ddot``'s unrolled kernel adds in
another order and the two may round apart.  Within that bound:

* a bin of mass ``0.0`` leaves the sum unchanged, and one of mass ``1.0``
  adds its probability exactly as ``acc + p``;
* a value-kind leaf (one bin per distinct value) has only 0/1 masses, so
  its dot is the builtin ``sum`` of the covered bins from ``0.0``, which
  adds left to right on Python 3.11 (from 3.12 it compensates float
  additions);
* a width-kind leaf (equal-width bins) covers a run of bins in which only
  the first and the last can be partial.  The first covered bin meets an
  empty prefix, so its FMA is the plain product ``p * m``; the full bins
  in between are added with ``sum``; only a partial last bin after them
  needs a true FMA, computed exactly by :func:`_fma`.

The scalar path rounds the same way on any IEEE-754 machine under
Python 3.11; ``np.dot`` may not (a BLAS build whose small-vector
``ddot`` does not fuse would round partial bins apart), so the pins in
``tests/ce/test_inference_pin.py`` also check the FMA finding on the
machine they run on.  On DeepDB fitted to the optimizer loop's 16
datasets (every join template), all 529 925 bin pairs of the 5 706 value
leaves gave the same float both ways, and so did all 513 726 ranges over
the domains ±2 of the 440 width leaves.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import mul

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


#: Veltkamp's splitting constant for float64, ``2**27 + 1``.
_SPLITTER = 134217729.0


def _fma(a: float, b: float, c: float) -> float:
    """``a * b + c`` rounded once, as a fused multiply-add rounds it.

    Python 3.11 has no ``math.fma``.  Dekker's product splits ``a * b``
    exactly into its rounded value and the rounding error, and
    ``math.fsum`` rounds the exact sum of the three terms once.  Exact for
    finite operands whose partial products neither overflow nor
    underflow, as for probabilities and masses in (0, 1] of a leaf.
    """
    product = a * b
    split = _SPLITTER * a
    a_high = split - (split - a)
    a_low = a - a_high
    split = _SPLITTER * b
    b_high = split - (split - b)
    b_low = b - b_high
    error = (((a_high * b_high - product) + a_high * b_low + a_low * b_high)
             + a_low * b_low)
    return math.fsum((product, error, c))


def _width_fraction(edges: tuple[float, ...], widths: tuple[float, ...],
                    probs: tuple[float, ...], lo: int, hi: int) -> float:
    """A width-kind leaf's P(lo <= X <= hi): the float
    ``np.dot(probs, Discretizer.range_mass(lo, hi))`` gives on up to 15
    bins (see the module docstring), from the bin ``edges``, ``widths``
    and ``probs`` as floats.

    Bin ``i`` covers ``[edges[i], edges[i + 1])`` and takes the fraction
    ``overlap / width`` of its probability, where ``overlap`` is its
    intersection with ``[lo, hi + 1)``.  The covered bins are a run: a bin
    inside it has ``overlap == width`` as floats, so mass exactly 1.0, and
    the bins outside it have mass 0.0.  A width-kind discretizer has more
    distinct values than bins, so every width exceeds 1.
    """
    if lo > hi:
        return 0.0
    low, high = float(lo), float(hi + 1)
    first = max(bisect_right(edges, low) - 1, 0)
    last = min(bisect_left(edges, high), len(probs)) - 1
    if first > last:
        return 0.0
    # Covered, so the mass lies in (0, 1]: the clip to [0, 1] is moot.
    acc = probs[first] * ((min(high, edges[first + 1])
                           - max(low, edges[first])) / widths[first])
    if first == last:
        return acc
    acc = sum(probs[first + 1:last], acc)
    mass = (min(high, edges[last + 1]) - edges[last]) / widths[last]
    if mass == 1.0:
        return acc + probs[last]
    return _fma(probs[last], mass, acc)


class FlatSPN:
    """An SPN compiled to a flat post-order program over numbered slots.

    A query evaluates only the leaves on its constrained columns and their
    ancestors; every other slot keeps the value it has with no predicate,
    computed once here.  The internal nodes a set of constrained columns
    reaches, in slot order, are kept per set, keyed by the set as a
    bitmask of its columns: at most ``2**c`` schedules for an SPN over
    ``c`` columns, sharing one step tuple per node.  The arithmetic is the
    recursive evaluation's, operand for operand, so estimates are
    bit-identical to it:

    * a leaf answers a range with the float ``np.dot(probs, mass)`` gives
      on its coverage mass, without numpy (see the module docstring).  A
      value-kind leaf adds its bin probabilities (a tuple of floats) left
      to right from ``0.0`` over the bins that two bisections of its
      values find inside the range.  A width-kind leaf keeps its bin
      edges, widths and probabilities as tuples of floats and adds the
      bins the range covers in order (:func:`_width_fraction`): plain
      products and sums where they equal the FMA ``np.dot`` runs, and an
      exact FMA for a partial last bin.
    * a product node is ``1.0 · ∏ pᵢ`` and a sum node ``0 + Σ wᵢ·pᵢ``
      (the builtin ``sum``), both in child order.  A product does not
      stop at a zero child: 0.0 times a finite probability is 0.0.
    """

    def __init__(self, root: _SPNNode):
        #: Internal slot -> its step (slot, child slots, weights; None for
        #: a product), in ascending slot order.
        self._steps: dict[int, tuple[int, tuple[int, ...],
                                     list[float] | None]] = {}
        #: Column -> its value-kind leaves as (slot, bin values, bin
        #: probabilities): a list of ints and a tuple of floats.
        self._value_leaves: dict[str, list[tuple]] = {}
        #: Column -> its width-kind leaves as (slot, bin edges, bin widths,
        #: bin probabilities), each a tuple of floats.
        self._width_leaves: dict[str, list[tuple]] = {}
        #: Column -> the internal slots above its leaves.
        self._ancestors: dict[str, set[int]] = {}
        #: The sum of the bits of a set of constrained columns -> the steps
        #: of the internal nodes above their leaves, in slot order.
        self._schedules: dict[int, tuple[tuple, ...]] = {}
        self._slots = 0
        self._compile(root)
        #: Column -> its bit in a schedule's key.
        self._bits = {column: 1 << i
                      for i, column in enumerate(self._ancestors)}
        # With no predicate every leaf reads 1.0.
        self._constants = [1.0] * self._slots
        self._evaluate(self._constants, tuple(self._steps.values()))

    def _compile(self, node: _SPNNode) -> set[str]:
        """Number ``node``'s subtree in post-order; return its columns."""
        if isinstance(node, LeafNode):
            slot = self._slots
            self._slots += 1
            self._ancestors.setdefault(node.column, set())
            histogram = node.histogram
            discretizer = histogram.discretizer
            probs = tuple(histogram.probs.tolist())
            if discretizer.kind == "value":
                self._value_leaves.setdefault(node.column, []).append(
                    (slot, discretizer.value_list, probs))
            else:
                self._width_leaves.setdefault(node.column, []).append(
                    (slot, tuple(discretizer.edges.tolist()),
                     tuple(discretizer.widths.tolist()), probs))
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
        self._steps[slot] = (slot, tuple(children), weights)
        for column in columns:
            self._ancestors[column].add(slot)
        return columns

    def _schedule(self, key: int) -> tuple[tuple, ...]:
        """The steps of the internal nodes above the leaves of the columns
        whose bits make up ``key``, in slot order."""
        live: set[int] = set()
        for column, bit in self._bits.items():
            if key & bit:
                live |= self._ancestors[column]
        return tuple([self._steps[slot] for slot in sorted(live)])

    @staticmethod
    def _evaluate(values: list[float], schedule: tuple[tuple, ...]) -> None:
        """Recompute the internal nodes of ``schedule`` in ``values``."""
        for slot, children, weights in schedule:
            if weights is None:
                prob = 1.0
                for child in children:
                    prob *= values[child]
            else:
                prob = sum(map(mul, weights, map(values.__getitem__,
                                                 children)))
            values[slot] = prob

    def probability(self, ranges: dict[str, tuple[int, int]]) -> float:
        """P(∧ column ∈ [lo, hi]); columns the SPN lacks are ignored."""
        values = self._constants.copy()
        bits = self._bits
        key = 0
        for column, bounds in ranges.items():
            bit = bits.get(column)
            if bit is None:
                continue
            key |= bit
            lo, hi = bounds[0], bounds[1]
            for slot, value_list, probs in self._value_leaves.get(column, ()):
                values[slot] = sum(probs[bisect_left(value_list, lo):
                                         bisect_right(value_list, hi)], 0.0)
            for slot, edges, widths, probs in self._width_leaves.get(column,
                                                                    ()):
                values[slot] = _width_fraction(edges, widths, probs, lo, hi)
        schedule = self._schedules.get(key)
        if schedule is None:
            schedule = self._schedules[key] = self._schedule(key)
        self._evaluate(values, schedule)
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
