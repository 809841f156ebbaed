"""Table I: statistics of the evaluation datasets."""

from __future__ import annotations

from dataclasses import dataclass

from ..datagen.presets import imdb_light_like, power_like, stats_light_like
from ..datagen.spec import random_spec
from ..datagen.multi_table import generate_dataset
from .common import ExperimentSuite, format_table, get_suite


@dataclass
class Table1Result:
    rows: list[list]
    text: str


def _stats(dataset) -> list:
    rows = [t.num_rows for t in dataset.tables.values()]
    cols = sum(len(t.data_columns()) for t in dataset.tables.values())
    domain = sum(t.domain_size(c) for t in dataset.tables.values()
                 for c in t.data_columns())
    return [dataset.name, dataset.num_tables,
            f"{min(rows)}-{max(rows)}", cols, domain]


def run(suite: ExperimentSuite | None = None,
        num_synthetic_probe: int = 5) -> Table1Result:
    suite = suite or get_suite()
    rows = [_stats(imdb_light_like()), _stats(stats_light_like()),
            _stats(power_like())]
    synthetic = [generate_dataset(random_spec(i)) for i in range(num_synthetic_probe)]
    tables = [d.num_tables for d in synthetic]
    table_rows = [t.num_rows for d in synthetic for t in d.tables.values()]
    cols = [sum(len(t.data_columns()) for t in d.tables.values())
            for d in synthetic]
    rows.append([
        "synthetic", f"{min(tables)}-{max(tables)}",
        f"{min(table_rows)}-{max(table_rows)}",
        f"{min(cols)}-{max(cols)}", "-",
    ])
    text = format_table(
        ["dataset", "#tables", "#rows", "#columns", "total domain size"],
        rows, title="Table I: statistics of datasets")
    return Table1Result(rows, text)
