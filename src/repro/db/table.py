"""Column-store tables backed by numpy arrays.

This is the storage substrate standing in for PostgreSQL: every dataset in
the reproduction is a set of integer-valued columnar tables connected by
PK–FK joins.  Primary-key columns always hold the values ``0 .. n-1`` (value
== row position), which makes PK lookups O(1) array indexing throughout the
join machinery.
"""

from __future__ import annotations

import numpy as np

PK_COLUMN = "pk"


class Table:
    """An immutable columnar table.

    Parameters
    ----------
    name:
        Table identifier, unique within a :class:`~repro.db.schema.Dataset`.
    columns:
        Mapping from column name to 1-D integer numpy array.  All columns
        must share the same length.
    """

    def __init__(self, name: str, columns: dict[str, np.ndarray]):
        if not columns:
            raise ValueError(f"table {name!r} must have at least one column")
        lengths = {len(values) for values in columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"table {name!r} has ragged columns: {lengths}")
        self.name = name
        self.columns: dict[str, np.ndarray] = {
            col: np.ascontiguousarray(values, dtype=np.int64)
            for col, values in columns.items()
        }
        self.num_rows = lengths.pop()

    # ------------------------------------------------------------------
    @property
    def column_names(self) -> list[str]:
        return list(self.columns)

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    @property
    def has_pk(self) -> bool:
        return PK_COLUMN in self.columns

    def data_columns(self) -> list[str]:
        """Non-key columns (neither the PK nor any FK column)."""
        return [c for c in self.columns if c != PK_COLUMN and not c.startswith("fk_")]

    def fk_columns(self) -> list[str]:
        return [c for c in self.columns if c.startswith("fk_")]

    def __getitem__(self, column: str) -> np.ndarray:
        return self.columns[column]

    def __contains__(self, column: str) -> bool:
        return column in self.columns

    def __repr__(self) -> str:
        return f"Table({self.name!r}, rows={self.num_rows}, cols={self.column_names})"

    # ------------------------------------------------------------------
    def domain_size(self, column: str) -> int:
        return int(len(np.unique(self.columns[column])))

    def select(self, predicates: list[tuple[str, int, int]]) -> np.ndarray:
        """Boolean mask of rows satisfying all ``(column, lo, hi)`` ranges."""
        if not predicates:
            return np.ones(self.num_rows, dtype=bool)
        (column, lo, hi), *rest = predicates
        values = self.columns[column]
        mask = (values >= lo) & (values <= hi)
        for column, lo, hi in rest:
            values = self.columns[column]
            mask &= (values >= lo) & (values <= hi)
        return mask

    def take(self, indices: np.ndarray) -> "Table":
        """A new table holding the given rows (used by sampling selectors)."""
        return Table(self.name, {c: v[indices] for c, v in self.columns.items()})
