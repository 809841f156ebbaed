"""FLAT: factorize-split-sum networks for cardinality estimation.

Implements the FSPN estimator of Zhu et al. (VLDB 2021) — reference [54]
of the AutoCE paper — as an eighth candidate model, exercising the paper's
extensibility claim (Sec. IV-B1: "any newly-emerged CE model ... can be
readily incorporated").

An FSPN refines the classic SPN structure with a *factorize* operation:
highly-correlated column groups are split off and modeled **jointly** by a
multi-dimensional histogram (a *multi-leaf*), while the weakly-correlated
remainder is learned by DeepDB's SPN learner,
:func:`~repro.ce.spn.build_spn` (row-split sum nodes over independent
products of univariate leaves).  Joint modeling of exactly the columns
where the independence assumption breaks is what gives FLAT its
accuracy/latency profile: histogram lookups are fast, and correlation
error is paid only where correlation exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.rng import rng_from_seed
from ..workload.query import Query
from .discretize import Discretizer
from .spn import (LeafNode, SPNConfig, _abs_correlation, _column_groups,
                  _standardize, build_spn)
from .template_base import TemplateModel


@dataclass
class FLATConfig:
    """Structure-learning knobs for the FSPN builder."""

    #: |corr| above which columns are modeled jointly by a multi-leaf.
    high_threshold: float = 0.55
    #: |corr| above which weakly-correlated columns trigger a row split.
    low_threshold: float = 0.1
    #: Largest column group one multi-leaf may cover.
    max_group: int = 3
    #: Per-dimension bins of a multi-leaf (total cells ≤ bins_per_dim^max_group).
    bins_per_dim: int = 8
    max_leaf_bins: int = 14
    min_rows: int = 24
    max_depth: int = 10
    kmeans_iterations: int = 8
    seed: int = 0


class MultiLeaf:
    """Joint bounded-resolution histogram over a highly-correlated group.

    Each column is discretized independently; the joint probability table
    over the bin ids captures the cross-column correlation exactly at bin
    resolution.  Conjunctive-range probability is the contraction of the
    table with the per-dimension range-coverage vectors.
    """

    def __init__(self, columns: dict[str, np.ndarray], bins_per_dim: int = 8):
        if not columns:
            raise ValueError("MultiLeaf needs at least one column")
        self.names = list(columns)
        self.discretizers = [Discretizer(columns[c], max_bins=bins_per_dim)
                             for c in self.names]
        shape = tuple(d.n_bins for d in self.discretizers)
        ids = [d.transform(columns[c])
               for d, c in zip(self.discretizers, self.names)]
        flat = np.ravel_multi_index(ids, shape)
        counts = np.bincount(flat, minlength=int(np.prod(shape)))
        total = max(1, counts.sum())
        self.table = counts.reshape(shape).astype(np.float64) / total

    def probability(self, ranges: dict[str, tuple[int, int]]) -> float:
        result = self.table
        # Contract dimensions from the last to the first so earlier axis
        # indices stay valid while later axes are summed out.
        for axis in range(len(self.names) - 1, -1, -1):
            bounds = ranges.get(self.names[axis])
            if bounds is None:
                mass = self.discretizers[axis].full_mass()
            else:
                mass = self.discretizers[axis].range_mass(bounds[0], bounds[1])
            result = np.tensordot(result, mass, axes=([axis], [0]))
        return float(np.clip(result, 0.0, 1.0))

    def size(self) -> int:
        return 1


class FactorizeNode:
    """FLAT's factorize operation: P(H, W) = P(H) · P(W).

    ``H`` is the union of highly-correlated groups (each a multi-leaf) and
    ``W`` the weakly-correlated remainder (a DeepDB SPN).  The
    groups are chosen so that every strong pairwise dependency lands
    *inside* one multi-leaf, making the cross-factor independence
    assumption accurate by construction.
    """

    def __init__(self, joint_children: list[MultiLeaf], rest):
        self.joint_children = joint_children
        self.rest = rest

    def probability(self, ranges: dict[str, tuple[int, int]]) -> float:
        prob = 1.0
        for child in self.joint_children:
            prob *= child.probability(ranges)
            if prob == 0.0:
                return 0.0
        if self.rest is not None:
            prob *= self.rest.probability(ranges)
        return prob

    def size(self) -> int:
        rest = self.rest.size() if self.rest is not None else 0
        return 1 + sum(c.size() for c in self.joint_children) + rest


def _split_group(group: list[int], corr: np.ndarray, max_group: int) -> list[list[int]]:
    """Chunk an oversized correlated component into groups of ≤ max_group.

    Greedy: repeatedly seed a chunk with the strongest remaining edge and
    grow it by the column most correlated with the chunk.
    """
    remaining = set(group)
    chunks: list[list[int]] = []
    while remaining:
        if len(remaining) <= max_group:
            chunks.append(sorted(remaining))
            break
        pool = sorted(remaining)
        sub = corr[np.ix_(pool, pool)]
        i, j = np.unravel_index(int(np.argmax(sub)), sub.shape)
        chunk = {pool[i], pool[j]}
        while len(chunk) < max_group:
            candidates = [c for c in pool if c not in chunk]
            if not candidates:
                break
            best = max(candidates,
                       key=lambda c: max(corr[c, m] for m in chunk))
            chunk.add(best)
        chunks.append(sorted(chunk))
        remaining -= chunk
    return chunks


def build_fspn(columns: dict[str, np.ndarray], config: FLATConfig | None = None):
    """Learn an FSPN over the given column sample.

    Returns a node with a ``probability(ranges)`` method, where ``ranges``
    maps column names to inclusive ``(lo, hi)`` bounds.
    """
    config = config or FLATConfig()
    names = list(columns)
    if not names:
        raise ValueError("cannot build an FSPN over zero columns")
    rng = rng_from_seed(config.seed)
    if len(names) == 1:
        return LeafNode(names[0], columns[names[0]], config.max_leaf_bins)

    matrix = np.stack([columns[c] for c in names], axis=1).astype(np.float64)
    corr = _abs_correlation(*_standardize(matrix))

    # Highly-correlated components of the correlation graph become joint
    # multi-leaves; everything else is the weakly-correlated remainder.
    joint_groups: list[list[int]] = []
    in_joint: set[int] = set()
    for component in _column_groups(corr, config.high_threshold):
        if len(component) < 2:
            continue
        for chunk in _split_group(component, corr, config.max_group):
            if len(chunk) >= 2:
                joint_groups.append(chunk)
                in_joint.update(chunk)

    # The weakly-correlated remainder is DeepDB's SPN, learned with FLAT's
    # knobs: a row split absorbs the residual correlation.
    weak = SPNConfig(
        min_rows=config.min_rows, correlation_threshold=config.low_threshold,
        max_depth=config.max_depth, kmeans_iterations=config.kmeans_iterations,
        max_leaf_bins=config.max_leaf_bins, seed=config.seed)
    if not joint_groups:
        return build_spn(columns, weak, 0, rng)

    joint_children = [
        MultiLeaf({names[i]: columns[names[i]] for i in group},
                  bins_per_dim=config.bins_per_dim)
        for group in joint_groups
    ]
    weak_names = [c for i, c in enumerate(names) if i not in in_joint]
    rest = None
    if weak_names:
        rest = build_spn({c: columns[c] for c in weak_names}, weak, 0, rng)
    return FactorizeNode(joint_children, rest)


class FLAT(TemplateModel):
    """FLAT estimator: one FSPN per join template (see module docstring)."""

    name = "FLAT"

    def __init__(self, config: FLATConfig | None = None):
        super().__init__()
        self.config = config or FLATConfig()

    def _fit_template(self, template, columns, join_size):
        return build_fspn(columns, self.config)

    def _template_selectivity(self, model, template, query: Query) -> float:
        return model.probability(self._ranges(query))
