"""BayesCard: Bayesian-network cardinality estimation (Wu et al., 2020).

One Chow–Liu tree per join template over discretized columns; conjunctive
range queries are answered by exact tree inference and scaled by the
template's join size.  Inference runs message passing only along the paths
from the constrained columns to the root; every other subtree sends the
message its tree prepared on the first query
(:meth:`~repro.ce.chow_liu.ChowLiuTree.query_probability`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workload.query import Query
from .chow_liu import ChowLiuTree
from .discretize import Discretizer
from .template_base import TemplateModel


@dataclass
class BayesCardConfig:
    #: BayesCard runs exact inference over (near) full-domain CPTs — large
    #: bins make it sharp where samples are plentiful (single tables) and
    #: noisy where they are not (many-template multi-table datasets), at a
    #: real inference cost.
    max_bins: int = 64
    alpha: float = 0.05
    seed: int = 0


class _FittedTree:
    def __init__(self, tree: ChowLiuTree, discretizers: dict[str, Discretizer]):
        self.tree = tree
        self.discretizers = discretizers


class BayesCard(TemplateModel):
    name = "BayesCard"

    def __init__(self, config: BayesCardConfig | None = None):
        super().__init__()
        self.config = config or BayesCardConfig()

    def _fit_template(self, template, columns, join_size):
        discretizers = {col: Discretizer(values, self.config.max_bins)
                        for col, values in columns.items()}
        ids = {col: discretizers[col].transform(values)
               for col, values in columns.items()}
        n_bins = {col: discretizers[col].n_bins for col in columns}
        tree = ChowLiuTree(alpha=self.config.alpha).fit(ids, n_bins)
        return _FittedTree(tree, discretizers)

    def _template_selectivity(self, model: _FittedTree, template,
                              query: Query) -> float:
        allowed = {}
        for col, (lo, hi) in self._ranges(query).items():
            discretizer = model.discretizers.get(col)
            if discretizer is None:
                continue
            allowed[col] = discretizer.range_mass(lo, hi)
        return model.tree.query_probability(allowed)
