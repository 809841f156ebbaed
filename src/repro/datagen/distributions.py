"""Skewed value distributions (process F1, Eq. 1 of the paper).

The paper generates each column from a Pareto-family density

    f(x) = (1 + x·(skew−1))^(−1 − 1/(skew−1)) / (vmax − vmin),   x ∈ [0, 1]

where ``skew = 0`` recovers the uniform distribution and increasing ``skew``
concentrates mass near the low end of the domain.  We sample it exactly by
inverting the closed-form CDF.
"""

from __future__ import annotations

import numpy as np

from ..utils.rng import rng_from_seed

_MAX_SKEW = 0.999


def skew_cdf(x: np.ndarray, skew: float) -> np.ndarray:
    """CDF of the Eq. 1 density restricted (and normalized) to [0, 1]."""
    skew = float(np.clip(skew, 0.0, _MAX_SKEW))
    if skew == 0.0:
        return np.asarray(x, dtype=np.float64)
    a = skew - 1.0
    z = 1.0 - skew ** (1.0 / (1.0 - skew))
    return (1.0 - (1.0 + a * np.asarray(x, dtype=np.float64)) ** (-1.0 / a)) / z


def sample_skewed_unit(rng: np.random.Generator, size: int, skew: float) -> np.ndarray:
    """Draw ``size`` samples in [0, 1) from the Eq. 1 density via inverse CDF."""
    skew = float(np.clip(skew, 0.0, _MAX_SKEW))
    u = rng.random(size)
    if skew == 0.0:
        return u
    a = skew - 1.0
    z = 1.0 - skew ** (1.0 / (1.0 - skew))
    return ((1.0 - u * z) ** (-a) - 1.0) / a


def sample_skewed_column(rng: np.random.Generator | int, size: int, skew: float,
                         vmin: int, vmax: int) -> np.ndarray:
    """Integer column over the domain [vmin, vmax] with Eq. 1 skew."""
    if vmax < vmin:
        raise ValueError(f"empty domain [{vmin}, {vmax}]")
    rng = rng_from_seed(rng)
    unit = sample_skewed_unit(rng, size, skew)
    width = vmax - vmin + 1
    values = vmin + np.floor(unit * width).astype(np.int64)
    return np.clip(values, vmin, vmax)


def apply_column_correlation(rng: np.random.Generator, source: np.ndarray,
                             target: np.ndarray, correlation: float) -> np.ndarray:
    """Process F2: with probability ``correlation`` copy the source value.

    Positions where the coin lands heads take the value of ``source`` so that
    ``P(target[i] == source[i]) >= correlation``; the remaining positions keep
    the original ``target`` values.
    """
    if not 0.0 <= correlation <= 1.0:
        raise ValueError(f"correlation must be in [0, 1], got {correlation}")
    if correlation == 0.0:
        return target.copy()
    mask = rng.random(len(target)) < correlation
    out = target.copy()
    out[mask] = source[mask]
    return out
