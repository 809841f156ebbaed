"""DeepDB: relational sum-product networks (Hilprecht et al., VLDB 2020).

One SPN per join template (DeepDB's RSPN-ensemble strategy), learned from a
uniform join sample; estimates are the SPN's conjunctive-range probability
scaled by the exact template join size.  The probability comes from the
SPN's flat program (:class:`~repro.ce.spn.FlatSPN`), which evaluates only
the leaves on the query's constrained columns and their ancestors and
gives the recursive evaluation's result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..workload.query import Query
from .spn import SPNConfig, build_spn
from .template_base import TemplateModel


@dataclass
class DeepDBConfig:
    min_rows: int = 24
    correlation_threshold: float = 0.1
    max_depth: int = 12
    max_leaf_bins: int = 14
    seed: int = 0


class DeepDB(TemplateModel):
    name = "DeepDB"

    def __init__(self, config: DeepDBConfig | None = None):
        super().__init__()
        self.config = config or DeepDBConfig()

    def _fit_template(self, template, columns, join_size):
        spn_config = SPNConfig(
            min_rows=self.config.min_rows,
            correlation_threshold=self.config.correlation_threshold,
            max_depth=self.config.max_depth,
            max_leaf_bins=self.config.max_leaf_bins,
            seed=self.config.seed,
        )
        return build_spn(columns, spn_config)

    def _template_selectivity(self, model, template, query: Query) -> float:
        return model.probability(self._ranges(query))
