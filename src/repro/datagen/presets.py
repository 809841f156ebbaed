"""Statistically-shaped clones of the paper's real-world datasets.

The evaluation uses IMDB-light (6 tables, 12 columns), STATS-light (8 tables,
23 columns), the single-table Power dataset, and the CEB-IMDB benchmark.
With no network access, we generate synthetic datasets with the published
schema shapes (Table I) and deliberately heterogeneous skew/correlation so
that — as in the paper's motivation (Fig. 1) — different CE model families
win on different datasets.  Row counts are scaled down by ``scale`` to keep
CPU labeling cheap; the relative row-count ratios between tables are kept.

``derive_subschemas`` reproduces the paper's IMDB-20 / STATS-20 protocol
(Sec. VII-A): randomly select 1–5 joined tables with their join keys, then
keep 1–2 non-key columns per chosen table.
"""

from __future__ import annotations

import numpy as np

from ..db.schema import Dataset
from ..db.table import PK_COLUMN, Table
from ..utils.rng import rng_from_seed
from .multi_table import generate_dataset
from .spec import DatasetSpec, TableSpec


def _spec_from_profile(name: str, profile: list[dict], jmin: float, jmax: float,
                       seed: int, scale: float,
                       fanout_skew: float = 0.0) -> DatasetSpec:
    tables = tuple(
        TableSpec(
            num_columns=entry["columns"],
            num_rows=max(50, int(entry["rows"] * scale)),
            domain_size=entry["domain"],
            skew=entry["skew"],
            max_correlation=entry["correlation"],
            interaction=entry.get("interaction", 0.0),
        )
        for entry in profile
    )
    return DatasetSpec(name=name, tables=tables, join_correlation_min=jmin,
                       join_correlation_max=jmax,
                       fanout_skew=fanout_skew, seed=seed)


def imdb_light_like(seed: int = 101, scale: float = 0.02) -> Dataset:
    """A 6-table movie-schema clone (IMDB-light: 2.1K–339K rows, 12 columns).

    Many joining tables with moderate skew: the regime where the paper
    observes query-driven models (MSCN) winning on accuracy.
    """
    profile = [
        {"rows": 339_000, "columns": 2, "domain": 120, "skew": 0.55, "correlation": 0.3},
        {"rows": 250_000, "columns": 2, "domain": 90, "skew": 0.7, "correlation": 0.5},
        {"rows": 120_000, "columns": 2, "domain": 60, "skew": 0.4, "correlation": 0.2},
        {"rows": 36_000, "columns": 2, "domain": 40, "skew": 0.8, "correlation": 0.6},
        {"rows": 12_000, "columns": 2, "domain": 25, "skew": 0.3, "correlation": 0.4},
        {"rows": 2_100, "columns": 2, "domain": 15, "skew": 0.6, "correlation": 0.1},
    ]
    spec = _spec_from_profile("imdb_light", profile, 0.3, 0.9, seed, scale,
                              fanout_skew=0.9)
    return generate_dataset(spec)


def stats_light_like(seed: int = 202, scale: float = 0.02) -> Dataset:
    """An 8-table Stack-Exchange-schema clone (STATS-light: 23 columns)."""
    profile = [
        {"rows": 328_000, "columns": 3, "domain": 100, "skew": 0.75, "correlation": 0.4},
        {"rows": 175_000, "columns": 3, "domain": 80, "skew": 0.6, "correlation": 0.7},
        {"rows": 91_000, "columns": 3, "domain": 60, "skew": 0.5, "correlation": 0.2},
        {"rows": 80_000, "columns": 3, "domain": 50, "skew": 0.85, "correlation": 0.5},
        {"rows": 42_000, "columns": 3, "domain": 45, "skew": 0.35, "correlation": 0.3},
        {"rows": 20_000, "columns": 3, "domain": 30, "skew": 0.65, "correlation": 0.6},
        {"rows": 5_000, "columns": 3, "domain": 25, "skew": 0.45, "correlation": 0.1},
        {"rows": 1_000, "columns": 2, "domain": 15, "skew": 0.25, "correlation": 0.2},
    ]
    spec = _spec_from_profile("stats_light", profile, 0.2, 0.8, seed, scale,
                              fanout_skew=0.8)
    return generate_dataset(spec)


def power_like(seed: int = 303, scale: float = 1.0) -> Dataset:
    """A single-table household-power clone: 7 highly-correlated columns.

    Single table with strong cross-column correlation: the regime where the
    paper observes data-driven models (NeuroCard/DeepDB) winning (Fig. 1b).
    """
    spec = DatasetSpec(
        name="power",
        tables=(TableSpec(num_columns=7, num_rows=max(200, int(4_000 * scale)),
                          domain_size=64, skew=0.25, max_correlation=0.9,
                          interaction=0.4),),
        join_correlation_min=0.5, join_correlation_max=1.0, seed=seed,
    )
    return generate_dataset(spec)


def ceb_like(seed: int = 404, scale: float = 0.02) -> Dataset:
    """A CEB-IMDB-style benchmark schema: a wider movie-schema variant.

    The paper restricts CEB experiments to query-driven models (Table III);
    our clone keeps 7 tables so multi-way join templates exist.
    """
    profile = [
        {"rows": 339_000, "columns": 2, "domain": 110, "skew": 0.6, "correlation": 0.35},
        {"rows": 200_000, "columns": 2, "domain": 95, "skew": 0.5, "correlation": 0.55},
        {"rows": 150_000, "columns": 2, "domain": 70, "skew": 0.75, "correlation": 0.25},
        {"rows": 90_000, "columns": 2, "domain": 55, "skew": 0.45, "correlation": 0.45},
        {"rows": 45_000, "columns": 2, "domain": 35, "skew": 0.65, "correlation": 0.65},
        {"rows": 15_000, "columns": 2, "domain": 25, "skew": 0.35, "correlation": 0.15},
        {"rows": 4_000, "columns": 2, "domain": 18, "skew": 0.55, "correlation": 0.3},
    ]
    spec = _spec_from_profile("ceb_imdb", profile, 0.3, 0.9, seed, scale,
                              fanout_skew=0.85)
    return generate_dataset(spec)


def derive_subschemas(dataset: Dataset, count: int = 20,
                      seed: int | np.random.Generator = 0,
                      max_tables: int = 5) -> list[Dataset]:
    """The paper's IMDB-20 / STATS-20 protocol: random testing sub-schemas.

    Each derived dataset keeps (1) a random connected 1–``max_tables`` join
    template with its join keys and (2) 1–2 randomly chosen non-key columns
    per kept table.
    """
    rng = rng_from_seed(seed)
    templates = [t for t in dataset.connected_subsets(max_size=max_tables)]
    derived: list[Dataset] = []
    for index in range(count):
        template = templates[int(rng.integers(0, len(templates)))]
        kept_edges = dataset.subset_edges(template)
        needed_fks: dict[str, set[str]] = {name: set() for name in template}
        needs_pk: set[str] = set()
        for fk in kept_edges:
            needed_fks[fk.child].add(fk.fk_column)
            needs_pk.add(fk.parent)

        tables: list[Table] = []
        for name in template:
            source = dataset[name]
            data_cols = source.data_columns()
            keep_n = int(rng.integers(1, min(2, len(data_cols)) + 1))
            chosen = list(rng.choice(data_cols, size=keep_n, replace=False))
            columns: dict[str, np.ndarray] = {}
            if name in needs_pk:
                columns[PK_COLUMN] = source[PK_COLUMN]
            for fk_col in sorted(needed_fks[name]):
                columns[fk_col] = source[fk_col]
            for col in chosen:
                columns[col] = source[col]
            tables.append(Table(name, columns))
        derived.append(Dataset(f"{dataset.name}_sub{index}", tables, kept_edges))
    return derived
