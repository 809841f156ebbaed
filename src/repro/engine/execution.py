"""Physical plan execution over the columnar tables.

Executes the optimizer's plans with real numpy operators, so that plans
with smaller intermediate results genuinely run faster.  Scans are
sequential (one mask per predicate) or use a lazily built sorted index.
Joins use that a parent's primary key is its row index:

* adding the parent (PK side) keeps the left rows whose FK value is marked
  in a boolean bitmap over the parent's scanned rows, which an index scan
  hands over unsorted; an index nested-loop join with no parent predicates
  scans nothing and addresses the parent rows directly by FK value;
* adding the child (FK side) stably argsorts the scanned child rows by FK
  value and counts them per parent (``bincount``), so each left parent
  row's matches are the run starting at the exclusive prefix sum of the
  counts.

Neither join searches a sorted array.  Executing for real is the causal
link Table V relies on: better cardinalities → better join
orders/operators → lower wall-clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..db.schema import Dataset
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
            # Read-only: an unordered index scan returns a view of it.
            order.flags.writeable = False
            self._sorted[key] = (values[order], order)
        return self._sorted[key]

    def _scan(self, node: ScanNode, ordered: bool = True) -> np.ndarray:
        """The row ids of ``node``'s table that pass its predicates, in
        ascending order unless ``ordered`` is false, when an index scan
        leaves them in index order (a PK-side scan only marks a bitmap)."""
        table = self.dataset[node.table]
        if not node.predicates:
            return np.arange(table.num_rows, dtype=np.int64)
        if node.method == "index":
            # Use the sorted index for the first predicate, refine the rest.
            first, *rest = node.predicates
            values, order = self._sorted_index(node.table, first.column)
            rows = order[values.searchsorted(first.lo, "left"):
                         values.searchsorted(first.hi, "right")]
            for pred in rest:
                column = table[pred.column][rows]
                rows = rows[(column >= pred.lo) & (column <= pred.hi)]
            if ordered:
                rows = rows.copy()
                rows.sort()
            return rows
        mask = table.select([(p.column, p.lo, p.hi) for p in node.predicates])
        return np.flatnonzero(mask).astype(np.int64, copy=False)

    # ------------------------------------------------------------------
    def _execute_node(self, node: PlanNode) -> dict[str, np.ndarray]:
        """Returns the intermediate result as row indices per table."""
        if isinstance(node, ScanNode):
            return {node.table: self._scan(node)}

        left = self._execute_node(node.left)
        fk = node.fk
        # Dataset construction checks 0 <= fk < parent.num_rows and that the
        # parent's pk column is arange(num_rows), so a parent row's index is
        # its key and both kernels index per-parent arrays by FK value.
        num_parents = self.dataset[fk.parent].num_rows

        if fk.child in left:
            # Left holds the FK; new table is the parent (PK side).
            fk_values = self.dataset[fk.child][fk.fk_column][left[fk.child]]
            if node.method == "indexnl" and len(node.right.predicates) == 0:
                # Direct PK addressing: every FK value is a parent row, so
                # the parent is not scanned.
                result = {name: rows for name, rows in left.items()}
                result[fk.parent] = fk_values
                return result
            # Bitmap probe: mark the scanned parent rows, in any order, then
            # read each left row's mark at its FK value.
            member = np.zeros(num_parents, dtype=bool)
            member[self._scan(node.right, ordered=False)] = True
            keep = member[fk_values]
            result = {name: rows[keep] for name, rows in left.items()}
            result[fk.parent] = fk_values[keep]
            return result

        # Left holds the parent (PK side); new table is the child (FK side).
        # The scanned child rows, stably sorted by FK value, hold each
        # parent's matches in one run, in row order; counting bounds locate
        # the runs.
        right_rows = self._scan(node.right)
        fk_values = self.dataset[fk.child][fk.fk_column][right_rows]
        # A stable order is unique, so the FK values may be sorted in the
        # smallest unsigned type that holds a parent row: numpy radix-sorts
        # keys of up to 16 bits, 12x faster than its int64 timsort on
        # 3 000 rows.
        order = fk_values.astype(np.min_scalar_type(num_parents - 1)).argsort(
            kind="stable")
        counts = np.bincount(fk_values, minlength=num_parents)
        parent_rows = left[fk.parent]
        fanouts = counts[parent_rows]
        # Output row k of left row i reads position run_start + (k - first
        # output row of i) of the sorted run: both exclusive prefix sums.
        run_starts = counts.cumsum() - counts
        firsts = fanouts.cumsum() - fanouts
        keep = np.arange(len(parent_rows)).repeat(fanouts)
        shift = (run_starts[parent_rows] - firsts).repeat(fanouts)
        child_positions = order[shift + np.arange(len(shift))]
        result = {name: rows[keep] for name, rows in left.items()}
        result[fk.child] = right_rows[child_positions]
        return result

    # ------------------------------------------------------------------
    def execute(self, plan: PlanNode) -> ExecutionResult:
        start = time.perf_counter()
        result = self._execute_node(plan)
        rows = len(next(iter(result.values()))) if result else 0
        return ExecutionResult(rows=rows, elapsed=time.perf_counter() - start)
