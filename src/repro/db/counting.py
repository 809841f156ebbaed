"""Exact cardinality counting for acyclic (PK–FK) joins.

This module replaces "run the queries in the database to get the true
cardinalities" from the paper's labeling pipeline.  Because every join graph
in the reproduction is a forest of PK–FK edges, the exact count of

    ``|σ_preds(T1 ⋈ T2 ⋈ ... ⋈ Tk)|``

can be computed in linear time by weighted message passing over the join
tree (a special case of Yannakakis' algorithm): every row starts with weight
1 if it satisfies its table-local predicates, children aggregate their
weights group-by FK value and multiply them into the parent rows, and the
final answer is the weight sum at the root.
"""

from __future__ import annotations

import numpy as np

from .schema import Dataset


def _local_weights(dataset: Dataset, table: str,
                   predicates: dict[str, list[tuple[str, int, int]]]) -> np.ndarray:
    mask = dataset[table].select(predicates.get(table, []))
    return mask.astype(np.float64)


def count_join(dataset: Dataset, tables: tuple[str, ...],
               predicates: list[tuple[str, str, int, int]]) -> int:
    """Exact result cardinality of an SPJ query.

    Parameters
    ----------
    tables:
        Connected subset of the dataset's tables (the join template).
    predicates:
        List of ``(table, column, lo, hi)`` inclusive range predicates.
    """
    tables = tuple(tables)
    if not dataset.is_connected_subset(tables):
        raise ValueError(f"{tables} is not a connected join template of {dataset.name}")

    by_table: dict[str, list[tuple[str, int, int]]] = {}
    for table, column, lo, hi in predicates:
        if table not in tables:
            raise ValueError(f"predicate on {table!r} outside the join template")
        by_table.setdefault(table, []).append((column, lo, hi))

    weights = {t: _local_weights(dataset, t, by_table) for t in tables}
    if len(tables) == 1:
        return int(round(weights[tables[0]].sum()))

    edges = dataset.subset_edges(tables)
    # Root the join tree at the first table and compute a post-order.
    adjacency: dict[str, list[str]] = {t: [] for t in tables}
    for fk in edges:
        adjacency[fk.child].append(fk.parent)
        adjacency[fk.parent].append(fk.child)
    root = tables[0]
    order: list[str] = []
    parent_of: dict[str, str | None] = {root: None}
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        for neighbour in adjacency[node]:
            if neighbour not in parent_of:
                parent_of[neighbour] = node
                stack.append(neighbour)

    # Fold messages bottom-up (reverse of the BFS order).
    for node in reversed(order):
        up = parent_of[node]
        if up is None:
            continue
        fk = dataset.fk_between(node, up)
        if fk.child == node:
            # node holds the FK; aggregate node weights by FK value and
            # multiply into the parent rows they reference.
            message = np.bincount(
                dataset[node][fk.fk_column], weights=weights[node],
                minlength=dataset[up].num_rows,
            )
            weights[up] = weights[up] * message
        else:
            # node holds the PK; each parent row joins exactly the node row
            # whose pk equals the parent's FK value (pk value == row index).
            fk_values = dataset[up][fk.fk_column]
            weights[up] = weights[up] * weights[node][fk_values]

    return int(round(weights[root].sum()))


def join_size(dataset: Dataset, tables: tuple[str, ...]) -> int:
    """Exact size of the (unfiltered) join over ``tables``."""
    return count_join(dataset, tables, [])


def selectivity(dataset: Dataset, tables: tuple[str, ...],
                predicates: list[tuple[str, str, int, int]]) -> float:
    """Fraction of the join result surviving the predicates."""
    total = join_size(dataset, tables)
    if total == 0:
        return 0.0
    return count_join(dataset, tables, predicates) / total
