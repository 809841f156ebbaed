"""Datasets: collections of tables plus a PK–FK join graph.

The paper's synthetic datasets are 1–5 tables where a "main" table exposes a
primary key and other tables reference it through foreign keys, forming an
acyclic join graph (a forest).  :class:`Dataset` stores the tables and the
foreign-key edges and offers graph utilities (connected sub-schemas, join
paths) used by the workload generator, the ground-truth counter and the
feature extractor.

Construction checks the forest rule with a union-find over the table
names.  The join graph is a plain table → {neighbour: foreign key} map,
and its connected table subsets a sorted set of sorted name tuples; both
are built on the first call of a graph method (:meth:`~Dataset.fk_between`,
:meth:`~Dataset.is_connected_subset`, :meth:`~Dataset.connected_subsets`)
and kept for the dataset's lifetime.  Serving calls none of them, so
loading a dataset to recommend for it builds neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .table import PK_COLUMN, Table


@dataclass(frozen=True)
class ForeignKey:
    """A PK–FK edge: ``child.fk_column`` references ``parent.pk``."""

    child: str
    fk_column: str
    parent: str

    def __post_init__(self):
        if not self.fk_column.startswith("fk_"):
            raise ValueError(f"foreign-key column {self.fk_column!r} must start with 'fk_'")


class Dataset:
    """A named set of tables with foreign-key relationships."""

    def __init__(self, name: str, tables: list[Table], foreign_keys: list[ForeignKey]):
        if not tables:
            # The featurizer and the batcher need at least one vertex.
            raise ValueError("a dataset needs at least one table")
        self.name = name
        self.tables: dict[str, Table] = {t.name: t for t in tables}
        if len(self.tables) != len(tables):
            raise ValueError("duplicate table names")
        self.foreign_keys = list(foreign_keys)
        self._validate()
        self._require_forest()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        for fk in self.foreign_keys:
            if fk.child not in self.tables or fk.parent not in self.tables:
                raise ValueError(f"foreign key {fk} references unknown table")
            child = self.tables[fk.child]
            parent = self.tables[fk.parent]
            if fk.fk_column not in child:
                raise ValueError(f"table {fk.child!r} lacks column {fk.fk_column!r}")
            if PK_COLUMN not in parent:
                raise ValueError(f"table {fk.parent!r} lacks a primary key")
            fk_values = child[fk.fk_column]
            if fk_values.min(initial=0) < 0 or fk_values.max(initial=0) >= parent.num_rows:
                raise ValueError(
                    f"foreign key {fk.child}.{fk.fk_column} has values outside "
                    f"the parent key range [0, {parent.num_rows})"
                )

    def _require_forest(self) -> None:
        """Reject FK sets whose join graph is not a forest.

        Union-find over the tables: an FK whose two tables are already
        joined closes a cycle.  That covers a self-referencing FK and two
        FKs between one table pair, in either direction (a multi-cycle).
        """
        root = {name: name for name in self.tables}

        def find(name: str) -> str:
            while root[name] != name:
                root[name] = root[root[name]]
                name = root[name]
            return name

        for fk in self.foreign_keys:
            child, parent = find(fk.child), find(fk.parent)
            if child == parent:
                raise ValueError("join graph must be acyclic (a forest)")
            root[child] = parent

    @cached_property
    def _neighbours(self) -> dict[str, dict[str, ForeignKey]]:
        """Each table's neighbours in the join graph, with the FK joining
        them; construction checked that the graph is a forest."""
        neighbours: dict[str, dict[str, ForeignKey]] = {
            name: {} for name in self.tables}
        for fk in self.foreign_keys:
            neighbours[fk.child][fk.parent] = fk
            neighbours[fk.parent][fk.child] = fk
        return neighbours

    @cached_property
    def _connected(self) -> dict[tuple[str, ...], None]:
        """Every connected table subset as a sorted name tuple, in sorted
        order (a dict used as an ordered set), grown from each table one
        neighbour at a time."""
        frontier = [frozenset([name]) for name in self.tables]
        found = set(frontier)
        while frontier:
            current = frontier.pop()
            for node in current:
                for neighbour in self._neighbours[node]:
                    grown = current | {neighbour}
                    if grown not in found:
                        found.add(grown)
                        frontier.append(grown)
        return dict.fromkeys(sorted(tuple(sorted(s)) for s in found))

    # ------------------------------------------------------------------
    @property
    def table_names(self) -> list[str]:
        return list(self.tables)

    @property
    def num_tables(self) -> int:
        return len(self.tables)

    @property
    def total_rows(self) -> int:
        return sum(t.num_rows for t in self.tables.values())

    def __getitem__(self, name: str) -> Table:
        return self.tables[name]

    def __repr__(self) -> str:
        return (f"Dataset({self.name!r}, tables={self.num_tables}, "
                f"fks={len(self.foreign_keys)})")

    # ------------------------------------------------------------------
    # Join-graph utilities
    # ------------------------------------------------------------------
    def fk_between(self, a: str, b: str) -> ForeignKey | None:
        """The FK joining tables ``a`` and ``b`` (either direction), if any."""
        return self._neighbours.get(a, {}).get(b)

    def is_connected_subset(self, tables: tuple[str, ...]) -> bool:
        """Whether ``tables`` names distinct tables of this dataset whose
        join graph is connected (a join template); ``()`` is not."""
        return tuple(sorted(tables)) in self._connected

    def subset_edges(self, tables: tuple[str, ...]) -> list[ForeignKey]:
        """All FK edges with both endpoints inside ``tables``."""
        table_set = set(tables)
        return [fk for fk in self.foreign_keys
                if fk.child in table_set and fk.parent in table_set]

    def connected_subsets(self, max_size: int | None = None) -> list[tuple[str, ...]]:
        """All connected table subsets (join templates) of at most
        ``max_size`` tables (all of them when ``None`` or 0), sorted."""
        limit = max_size or len(self.tables)
        return [subset for subset in self._connected if len(subset) <= limit]

    def join_correlation(self, fk: ForeignKey) -> float:
        """Feature used by AutoCE: |set(FK values)| / |set(PK values)|.

        Section V-A of the paper computes the join correlation as the ratio of
        the FK column's distinct values over the parent PK column's distinct
        values, which recovers the generation parameter ``p`` of process F3.
        """
        child = self.tables[fk.child]
        parent = self.tables[fk.parent]
        # _validate guarantees 0 <= fk < parent.num_rows, so counting the
        # occupied bins of an O(n) histogram equals len(np.unique(fk))
        # without its sort.
        ndv_fk = np.count_nonzero(
            np.bincount(child[fk.fk_column], minlength=parent.num_rows))
        return float(ndv_fk) / float(parent.num_rows)
