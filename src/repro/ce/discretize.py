"""Column discretization shared by the BayesCard and NeuroCard/UAE models.

Maps integer columns to a bounded number of bins.  When a column has few
distinct values each value gets its own bin (exact); otherwise equi-width
bins are used and range predicates receive fractional coverage of the edge
bins under a within-bin uniformity assumption.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np


class Discretizer:
    """Bin mapping for one integer column."""

    def __init__(self, values: np.ndarray, max_bins: int = 16):
        values = np.asarray(values, dtype=np.int64)
        if len(values) == 0:
            values = np.array([0], dtype=np.int64)
        unique = np.unique(values)
        if len(unique) <= max_bins:
            self.kind = "value"
            self.values = unique
            #: The bin values as a list, for ``bisect``.
            self.value_list = unique.tolist()
            self.n_bins = len(unique)
        else:
            self.kind = "width"
            lo, hi = int(unique[0]), int(unique[-1])
            self.edges = np.linspace(lo, hi + 1, max_bins + 1)
            self.n_bins = max_bins
            #: The bin widths, ``np.diff(edges)``.
            self.widths = np.diff(self.edges)
            self._has_width = self.widths > 0

    def transform(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64)
        if self.kind == "value":
            ids = np.searchsorted(self.values, values)
            ids = np.clip(ids, 0, self.n_bins - 1)
            return ids
        ids = np.searchsorted(self.edges, values, side="right") - 1
        return np.clip(ids, 0, self.n_bins - 1)

    def range_mass(self, lo: int, hi: int) -> np.ndarray:
        """Per-bin coverage fraction of the inclusive range [lo, hi]."""
        if lo > hi:
            return np.zeros(self.n_bins)
        if self.kind == "value":
            # Bins [left, right) hold the values inside [lo, hi].
            mass = np.zeros(self.n_bins)
            mass[bisect_left(self.value_list, lo):
                 bisect_right(self.value_list, hi)] = 1.0
            return mass
        # The integer bounds become float64 before the subtraction, which is
        # exact while |lo| and |hi + 1| stay below 2**53.
        overlap = np.minimum(float(hi + 1), self.edges[1:])
        overlap -= np.maximum(float(lo), self.edges[:-1])
        # A zero-width bin keeps its overlap, which is <= 0 and clips to 0.
        np.divide(overlap, self.widths, out=overlap, where=self._has_width)
        return np.clip(overlap, 0.0, 1.0, out=overlap)

    def full_mass(self) -> np.ndarray:
        return np.ones(self.n_bins)
