"""Synthetic dataset generation (Stage 1 of AutoCE).

Implements the paper's three generation processes — F1 skewness (Eq. 1),
F2 column correlation, F3 PK–FK join correlation — plus declarative dataset
specs and statistically-shaped clones of the real-world evaluation datasets.
"""

from .distributions import (
    sample_skewed_unit, sample_skewed_column, skew_cdf,
    apply_column_correlation,
)
from .spec import TableSpec, DatasetSpec, random_spec, DEFAULT_RANGES
from .single_table import generate_table
from .multi_table import generate_dataset
from .presets import (
    imdb_light_like, stats_light_like, power_like, ceb_like, derive_subschemas,
)

__all__ = [
    "sample_skewed_unit", "sample_skewed_column", "skew_cdf",
    "apply_column_correlation",
    "TableSpec", "DatasetSpec", "random_spec", "DEFAULT_RANGES",
    "generate_table", "generate_dataset",
    "imdb_light_like", "stats_light_like", "power_like", "ceb_like",
    "derive_subschemas",
]
