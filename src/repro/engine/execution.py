"""Physical plan execution over the columnar tables.

Executes the optimizer's plans with real numpy operators — hash joins with
build/probe phases, index nested-loop joins via direct PK addressing, and
sequential vs sorted-index scans — so that plans with smaller intermediate
results genuinely run faster.  This is the causal link Table V relies on:
better cardinalities → better join orders/operators → lower wall-clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..db.schema import Dataset
from ..db.table import PK_COLUMN
from .plans import PlanNode, ScanNode


@dataclass
class ExecutionResult:
    rows: int
    elapsed: float


class Executor:
    """Executes physical plans; keeps per-column sorted indexes lazily."""

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self._sorted: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    def _sorted_index(self, table: str, column: str):
        key = (table, column)
        if key not in self._sorted:
            values = self.dataset[table][column]
            order = np.argsort(values, kind="stable")
            self._sorted[key] = (values[order], order)
        return self._sorted[key]

    def _scan(self, node: ScanNode) -> np.ndarray:
        table = self.dataset[node.table]
        if not node.predicates:
            return np.arange(table.num_rows, dtype=np.int64)
        if node.method == "index":
            # Use the sorted index for the first predicate, refine the rest.
            first, *rest = node.predicates
            values, order = self._sorted_index(node.table, first.column)
            lo = np.searchsorted(values, first.lo, side="left")
            hi = np.searchsorted(values, first.hi, side="right")
            rows = order[lo:hi]
            for pred in rest:
                column = table[pred.column][rows]
                rows = rows[(column >= pred.lo) & (column <= pred.hi)]
            return np.sort(rows)
        mask = table.select([(p.column, p.lo, p.hi) for p in node.predicates])
        return np.nonzero(mask)[0].astype(np.int64)

    # ------------------------------------------------------------------
    def _execute_node(self, node: PlanNode) -> dict[str, np.ndarray]:
        """Returns the intermediate result as row indices per table."""
        if isinstance(node, ScanNode):
            return {node.table: self._scan(node)}

        left = self._execute_node(node.left)
        right_rows = self._scan(node.right)
        fk = node.fk
        child_in_left = fk.child in left

        if child_in_left:
            # Left holds the FK; new table is the parent (PK side).
            fk_values = self.dataset[fk.child][fk.fk_column][left[fk.child]]
            if node.method == "indexnl" and len(node.right.predicates) == 0:
                # Direct PK addressing: pk value == row index.
                result = {name: rows for name, rows in left.items()}
                result[fk.parent] = fk_values
                return result
            # Hash join: membership probe against the (sorted, unique)
            # parent row set — work scales with the actual input sizes.
            if len(right_rows) == 0:
                keep = np.zeros(len(fk_values), dtype=bool)
            else:
                positions = np.searchsorted(right_rows, fk_values)
                positions = np.minimum(positions, len(right_rows) - 1)
                keep = right_rows[positions] == fk_values
            result = {name: rows[keep] for name, rows in left.items()}
            result[fk.parent] = fk_values[keep]
            return result

        # Left holds the parent (PK side); new table is the child (FK side).
        child = self.dataset[fk.child]
        fk_values = child[fk.fk_column][right_rows]
        order = np.argsort(fk_values, kind="stable")
        sorted_fk = fk_values[order]
        parent_keys = self.dataset[fk.parent][PK_COLUMN][left[fk.parent]]
        starts = np.searchsorted(sorted_fk, parent_keys, side="left")
        stops = np.searchsorted(sorted_fk, parent_keys, side="right")
        fanouts = stops - starts
        total = int(fanouts.sum())
        keep = np.repeat(np.arange(len(parent_keys)), fanouts)
        offsets = np.concatenate(([0], np.cumsum(fanouts)))[:-1]
        within = np.arange(total) - np.repeat(offsets, fanouts)
        child_positions = order[np.repeat(starts, fanouts) + within]
        result = {name: rows[keep] for name, rows in left.items()}
        result[fk.child] = right_rows[child_positions]
        return result

    # ------------------------------------------------------------------
    def execute(self, plan: PlanNode) -> ExecutionResult:
        start = time.perf_counter()
        result = self._execute_node(plan)
        rows = len(next(iter(result.values()))) if result else 0
        return ExecutionResult(rows=rows, elapsed=time.perf_counter() - start)
