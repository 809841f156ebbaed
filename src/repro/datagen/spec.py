"""Declarative dataset specifications (Stage 1 inputs, Sec. III of the paper).

A :class:`DatasetSpec` captures the generation parameters the paper lists —
number of tables and columns, domain size, skewness, column correlation and
join correlation — so that a dataset is fully reproducible from its spec, and
a corpus of specs can be sampled to "cover a relatively comprehensive space
of data features" (Sec. IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..utils.rng import rng_from_seed


@dataclass(frozen=True)
class TableSpec:
    """Generation parameters for a single table."""

    num_columns: int
    num_rows: int
    domain_size: int
    skew: float
    max_correlation: float
    #: Strength of 3-way column interactions (higher-order dependence that
    #: pairwise models such as Chow–Liu trees cannot capture).
    interaction: float = 0.0

    def __post_init__(self):
        if self.num_columns < 1:
            raise ValueError("a table needs at least one data column")
        if self.num_rows < 1:
            raise ValueError("a table needs at least one row")
        if self.domain_size < 1:
            raise ValueError("domain size must be positive")
        if not 0.0 <= self.skew <= 1.0:
            raise ValueError("skew must be in [0, 1]")
        if not 0.0 <= self.max_correlation <= 1.0:
            raise ValueError("max_correlation must be in [0, 1]")
        if not 0.0 <= self.interaction <= 1.0:
            raise ValueError("interaction must be in [0, 1]")


@dataclass(frozen=True)
class DatasetSpec:
    """Generation parameters for a multi-table dataset."""

    name: str
    tables: tuple[TableSpec, ...]
    join_correlation_min: float = 0.2
    join_correlation_max: float = 1.0
    #: Skews join fanouts by the parent's first data column, creating
    #: cross-table dependence between predicates and join sizes.
    fanout_skew: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not self.tables:
            raise ValueError("dataset needs at least one table")
        if not 0.0 < self.join_correlation_min <= self.join_correlation_max <= 1.0:
            raise ValueError("join correlation bounds must satisfy 0 < jmin <= jmax <= 1")
        if not 0.0 <= self.fanout_skew <= 1.0:
            raise ValueError("fanout_skew must be in [0, 1]")

    @property
    def num_tables(self) -> int:
        return len(self.tables)


# Default ranges mirroring Table I's synthetic row ("1-5 tables, 10K-50K rows,
# 2-25 columns"), scaled down by default so labeling a corpus stays CPU-cheap.
# Rows and domains span an order of magnitude so that model performance
# genuinely spreads (the regime of the paper's Fig. 1, where no single CE
# model wins everywhere).
DEFAULT_RANGES = {
    "num_tables": (1, 5),
    "columns_per_table": (2, 5),
    "rows": (600, 6000),
    "domain": (8, 300),
    "skew": (0.0, 1.0),
    "max_correlation": (0.0, 0.9),
    "interaction": (0.0, 0.9),
    "join_correlation": (0.2, 1.0),
    "fanout_skew": (0.0, 1.0),
}


def random_spec(seed: int, name: str | None = None,
                ranges: dict | None = None) -> DatasetSpec:
    """Sample one dataset spec; ``seed`` fully determines the result."""
    cfg = dict(DEFAULT_RANGES)
    if ranges:
        cfg.update(ranges)
    rng = rng_from_seed(seed)
    num_tables = int(rng.integers(cfg["num_tables"][0], cfg["num_tables"][1] + 1))
    tables = []
    for _ in range(num_tables):
        tables.append(TableSpec(
            num_columns=int(rng.integers(cfg["columns_per_table"][0],
                                         cfg["columns_per_table"][1] + 1)),
            num_rows=int(rng.integers(cfg["rows"][0], cfg["rows"][1] + 1)),
            domain_size=int(rng.integers(cfg["domain"][0], cfg["domain"][1] + 1)),
            skew=float(rng.uniform(*cfg["skew"])),
            max_correlation=float(rng.uniform(*cfg["max_correlation"])),
            interaction=float(rng.uniform(*cfg["interaction"])),
        ))
    jmin = float(rng.uniform(*cfg["join_correlation"]))
    jmax = float(rng.uniform(jmin, cfg["join_correlation"][1]))
    return DatasetSpec(
        name=name or f"synthetic_{seed}",
        tables=tuple(tables),
        join_correlation_min=max(jmin, 0.05),
        join_correlation_max=max(jmax, max(jmin, 0.05)),
        fanout_skew=float(rng.uniform(*cfg["fanout_skew"])),
        seed=seed,
    )

