"""Evaluation metric: the Q-error (Sec. II of the paper)."""

from __future__ import annotations

import numpy as np

MIN_CARD = 1.0


def qerror(estimate: float | np.ndarray, true: float | np.ndarray) -> np.ndarray:
    """Q-error = max(est, true) / min(est, true), both floored at 1 row.

    Flooring at one row is the standard convention (Moerkotte et al. [21]):
    an estimate of 0.3 rows for a true count of 0 is a perfect answer for
    planning purposes, not an infinite error.
    """
    est = np.maximum(np.asarray(estimate, dtype=np.float64), MIN_CARD)
    tru = np.maximum(np.asarray(true, dtype=np.float64), MIN_CARD)
    return np.maximum(est, tru) / np.minimum(est, tru)

