"""Workload generation against a dataset (Stage 1, "Workload Generation").

Generates SPJ queries over the dataset's join templates with data-centered
range predicates, labels them with exact true cardinalities via the counting
substrate, and splits them into training/testing workloads for the CE models
(the paper uses 9 000 training / 1 000 testing queries; sizes are
configurable here).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..db.counting import count_join
from ..db.schema import Dataset
from ..utils.rng import rng_from_seed
from .query import Predicate, Query


@dataclass
class Workload:
    """Training and testing queries plus the templates they touch."""

    dataset_name: str
    train: list[Query]
    test: list[Query]

    @property
    def templates(self) -> list[tuple[str, ...]]:
        seen: dict[tuple[str, ...], None] = {}
        for query in self.train + self.test:
            seen.setdefault(query.template)
        return list(seen)

    def __len__(self) -> int:
        return len(self.train) + len(self.test)


def _random_predicate(dataset: Dataset, table: str, column: str,
                      rng: np.random.Generator) -> Predicate:
    """Range predicate centered on an actual data value (avoids empty hits).

    Widths are skewed towards narrow ranges (``u²`` scaling) so the workload
    is dominated by selective predicates, as in the JOB-light / CEB
    benchmarks the paper evaluates on — the regime where estimation errors
    actually differentiate the models.
    """
    values = dataset[table][column]
    center = int(values[int(rng.integers(0, len(values)))])
    span = max(1, int(values.max()) - int(values.min()))
    width = int(span * rng.random() ** 2)
    offset = int(rng.integers(0, width + 1))
    lo = max(int(values.min()), center - offset)
    hi = min(int(values.max()), lo + width)
    if lo > hi:
        lo, hi = hi, lo
    return Predicate(table, column, lo, hi)


def generate_query(dataset: Dataset, rng: np.random.Generator,
                   templates: list[tuple[str, ...]],
                   max_predicates_per_table: int = 2) -> Query:
    """One random SPJ query over one of the given join templates."""
    template = templates[int(rng.integers(0, len(templates)))]
    predicates: list[Predicate] = []
    for table in template:
        data_cols = dataset[table].data_columns()
        if not data_cols:
            continue
        count = int(rng.integers(1, min(max_predicates_per_table, len(data_cols)) + 1))
        chosen = rng.choice(data_cols, size=count, replace=False)
        for column in chosen:
            predicates.append(_random_predicate(dataset, table, str(column), rng))
    return Query(tuple(template), tuple(predicates))


def generate_workload(dataset: Dataset, num_train: int = 80, num_test: int = 40,
                      seed: int | np.random.Generator = 0,
                      max_templates: int = 6,
                      max_template_tables: int | None = None) -> Workload:
    """Generate and label a train/test workload for one dataset.

    A bounded number of join templates is sampled (always including the full
    schema when connected) so that data-driven models fit one joint model per
    template without exploding the labeling cost.
    """
    rng = rng_from_seed(seed)
    all_templates = dataset.connected_subsets(max_size=max_template_tables)
    if len(all_templates) > max_templates:
        indices = rng.choice(len(all_templates), size=max_templates, replace=False)
        templates = [all_templates[int(i)] for i in indices]
    else:
        templates = list(all_templates)

    queries: list[Query] = []
    attempts = 0
    needed = num_train + num_test
    while len(queries) < needed and attempts < needed * 20:
        attempts += 1
        query = generate_query(dataset, rng, templates)
        card = count_join(dataset, query.tables, query.predicate_tuples())
        queries.append(query.with_cardinality(card))
    return Workload(dataset.name, queries[:num_train], queries[num_train:needed])
