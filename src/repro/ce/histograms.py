"""Per-column statistics used by the Postgres-style estimator and the SPN leaves."""

from __future__ import annotations

import numpy as np


class ValueHistogram:
    """Exact value-frequency histogram over an integer column.

    Integer domains in this reproduction are small (≤ a few hundred distinct
    values), so an exact histogram is both feasible and the most faithful
    leaf distribution for range-selectivity estimation.
    """

    def __init__(self, values: np.ndarray):
        if len(values) == 0:
            self.values = np.array([], dtype=np.int64)
            self.counts = np.array([], dtype=np.int64)
            self.total = 0
            return
        self.values, self.counts = np.unique(np.asarray(values, dtype=np.int64),
                                             return_counts=True)
        self.total = int(self.counts.sum())
        self._cum = np.concatenate(([0], np.cumsum(self.counts)))

    def range_fraction(self, lo: int, hi: int) -> float:
        """P(lo <= X <= hi) under the empirical distribution."""
        if self.total == 0 or lo > hi:
            return 0.0
        left = int(np.searchsorted(self.values, lo, side="left"))
        right = int(np.searchsorted(self.values, hi, side="right"))
        return float(self._cum[right] - self._cum[left]) / self.total


class BinnedHistogram:
    """Bounded-resolution histogram used as the SPN leaf distribution.

    Real systems bound per-column statistics (DeepDB's histogram leaves,
    NeuroCard's column factorization); modelling error inside a bin is what
    keeps learned data-driven estimators from being oracles.
    """

    def __init__(self, values: np.ndarray, max_bins: int = 14):
        from .discretize import Discretizer  # local import avoids a cycle

        self.discretizer = Discretizer(values, max_bins=max_bins)
        ids = self.discretizer.transform(values)
        counts = np.bincount(ids, minlength=self.discretizer.n_bins)
        total = max(1, counts.sum())
        self.probs = counts.astype(np.float64) / total

