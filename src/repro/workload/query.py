"""SPJ query representation.

Queries in the reproduction follow the paper's workload (Sec. VII-A, queries
"similar to [36], [37]"): select-project-join queries over a connected join
template with conjunctive range predicates on non-key columns.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Predicate:
    """Inclusive range predicate ``lo <= table.column <= hi``."""

    table: str
    column: str
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty predicate range [{self.lo}, {self.hi}]")

    def as_tuple(self) -> tuple[str, str, int, int]:
        return (self.table, self.column, self.lo, self.hi)


@dataclass(frozen=True)
class Query:
    """A select-project-join query plus (optionally) its true cardinality."""

    tables: tuple[str, ...]
    predicates: tuple[Predicate, ...] = ()
    true_cardinality: int | None = None

    def __post_init__(self):
        table_set = set(self.tables)
        if len(table_set) != len(self.tables):
            raise ValueError("duplicate tables in query")
        for pred in self.predicates:
            if pred.table not in table_set:
                raise ValueError(f"predicate on {pred.table!r} not in FROM clause")

    @property
    def template(self) -> tuple[str, ...]:
        return tuple(sorted(self.tables))

    @property
    def num_joins(self) -> int:
        return max(0, len(self.tables) - 1)

    def predicate_tuples(self) -> list[tuple[str, str, int, int]]:
        return [p.as_tuple() for p in self.predicates]

    def with_cardinality(self, card: int) -> "Query":
        return Query(self.tables, self.predicates, card)

    def restrict(self, tables: tuple[str, ...]) -> "Query":
        """The sub-query over a subset of tables (used by the optimizer).

        It keeps the predicates on ``tables``, so every one is in its FROM
        clause; only duplicate ``tables`` can make it invalid, and the
        other checks of ``__post_init__`` are skipped.
        """
        tables = tuple(tables)
        table_set = set(tables)
        if len(table_set) != len(tables):
            raise ValueError("duplicate tables in query")
        predicates = tuple([p for p in self.predicates
                            if p.table in table_set])
        sub = object.__new__(Query)
        sub.__dict__.update(tables=tables, predicates=predicates,
                            true_cardinality=None)
        return sub

    def sql(self) -> str:
        """A human-readable SQL rendering (for logs and examples)."""
        from_clause = ", ".join(self.tables)
        conditions = [f"{p.table}.{p.column} BETWEEN {p.lo} AND {p.hi}"
                      for p in self.predicates]
        where = f" WHERE {' AND '.join(conditions)}" if conditions else ""
        return f"SELECT COUNT(*) FROM {from_clause}{where};"
