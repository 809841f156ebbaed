"""Cost model consuming injected cardinalities.

A classic textbook cost model: costs are proportional to the number of rows
touched, with estimated (sub-plan) cardinalities injected by whatever CE
model is under test — the mechanism the paper uses to plug learned
estimators into PostgreSQL's optimizer.  The optimizer and
:func:`~repro.engine.e2e.recost_plan` both price a plan through
:meth:`CostModel.scan` and :meth:`CostModel.join`, so a plan costs the same
wherever it is priced.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Relative per-row cost constants (dimensionless).
SEQ_ROW_COST = 1.0
INDEX_LOOKUP_COST = 4.0
HASH_BUILD_COST = 1.5
HASH_PROBE_COST = 1.0
NL_LOOKUP_COST = 2.5
OUTPUT_ROW_COST = 0.5


@dataclass
class CostModel:
    """Pure function of estimated input/output cardinalities."""

    def scan(self, method: str, table_rows: float, output_rows: float) -> float:
        """Cost of a ``"seq"`` or ``"index"`` scan of one base table."""
        if method == "seq":
            return SEQ_ROW_COST * table_rows + OUTPUT_ROW_COST * output_rows
        # B-tree descent plus per-matching-row fetch; beats a full scan only
        # for selective predicates — if the estimate is wrong, the optimizer
        # picks the slower access path, which is what Table V measures.
        return INDEX_LOOKUP_COST * 10.0 + 3.0 * output_rows

    def best_scan(self, table_rows: float, output_rows: float) -> tuple[str, float]:
        seq = self.scan("seq", table_rows, output_rows)
        index = self.scan("index", table_rows, output_rows)
        return ("index", index) if index < seq else ("seq", seq)

    def join(self, method: str, left_cost: float, left_rows: float,
             right_cost: float, right_rows: float, output_rows: float) -> float:
        """Cost of a left-deep ``"hash"`` or ``"indexnl"`` join node, summed
        as ``(left cost + right scan) + join``.

        A hash join builds on the right scan's rows and probes with the left
        rows.  An index nested-loop join looks each left row up by key, so
        the right scan's cost does not count.
        """
        if method == "indexnl":
            return left_cost + (NL_LOOKUP_COST * left_rows
                                + OUTPUT_ROW_COST * output_rows)
        return left_cost + right_cost + (HASH_BUILD_COST * right_rows
                                         + HASH_PROBE_COST * left_rows
                                         + OUTPUT_ROW_COST * output_rows)
