"""Histograms and discretization: the statistics substrate of the CE zoo."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ce.discretize import Discretizer
from repro.ce.histograms import (BinnedHistogram, EquiDepthHistogram,
                                 ValueHistogram)


def reference_range_mass(disc, lo, hi):
    """The per-bin loop that ``Discretizer.range_mass`` vectorizes."""
    if lo > hi:
        return np.zeros(disc.n_bins)
    if disc.kind == "value":
        return ((disc.values >= lo) & (disc.values <= hi)).astype(np.float64)
    coverage = np.zeros(disc.n_bins)
    for b in range(disc.n_bins):
        b_lo, b_hi = disc.edges[b], disc.edges[b + 1]
        width = b_hi - b_lo
        overlap = min(hi + 1, b_hi) - max(lo, b_lo)
        if width > 0:
            coverage[b] = np.clip(overlap / width, 0.0, 1.0)
    return coverage


class TestValueHistogram:
    def test_exact_fractions(self):
        hist = ValueHistogram(np.array([1, 1, 2, 3, 3, 3]))
        assert hist.range_fraction(1, 1) == pytest.approx(2 / 6)
        assert hist.range_fraction(2, 3) == pytest.approx(4 / 6)
        assert hist.range_fraction(0, 10) == 1.0

    def test_empty_range(self):
        hist = ValueHistogram(np.array([1, 2, 3]))
        assert hist.range_fraction(5, 9) == 0.0
        assert hist.range_fraction(3, 1) == 0.0

    def test_empty_values(self):
        hist = ValueHistogram(np.array([], dtype=np.int64))
        assert hist.range_fraction(0, 10) == 0.0
        assert hist.num_distinct == 0

    def test_min_max(self):
        hist = ValueHistogram(np.array([5, 2, 9]))
        assert hist.min == 2 and hist.max == 9

    def test_mass_vector(self):
        hist = ValueHistogram(np.array([1, 2, 3]))
        np.testing.assert_array_equal(hist.mass_vector(2, 3), [0, 1, 1])

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 20), min_size=1, max_size=50),
           st.integers(0, 20), st.integers(0, 20))
    def test_fraction_matches_direct_count(self, values, a, b):
        lo, hi = min(a, b), max(a, b)
        arr = np.array(values)
        hist = ValueHistogram(arr)
        expected = np.mean((arr >= lo) & (arr <= hi))
        assert hist.range_fraction(lo, hi) == pytest.approx(expected)


class TestBinnedHistogram:
    def test_full_range_is_one(self):
        values = np.random.default_rng(0).integers(0, 200, 1000)
        hist = BinnedHistogram(values, max_bins=8)
        assert hist.range_fraction(0, 199) == pytest.approx(1.0)

    def test_small_domain_is_exact(self):
        values = np.array([0, 0, 1, 2, 2, 2])
        hist = BinnedHistogram(values, max_bins=8)
        assert hist.range_fraction(2, 2) == pytest.approx(0.5)

    def test_bounded_between_zero_and_one(self):
        values = np.random.default_rng(1).integers(0, 500, 300)
        hist = BinnedHistogram(values, max_bins=6)
        for lo, hi in [(0, 10), (100, 400), (450, 600)]:
            assert 0.0 <= hist.range_fraction(lo, hi) <= 1.0


class TestEquiDepth:
    def test_full_range(self):
        values = np.random.default_rng(0).integers(0, 100, 500)
        hist = EquiDepthHistogram(values, num_buckets=16)
        assert hist.range_fraction(-1, 101) == pytest.approx(1.0, abs=1e-6)

    def test_median_split(self):
        values = np.arange(1000)
        hist = EquiDepthHistogram(values, num_buckets=10)
        assert hist.range_fraction(0, 499) == pytest.approx(0.5, abs=0.05)

    def test_empty(self):
        hist = EquiDepthHistogram(np.array([]))
        assert hist.range_fraction(0, 1) == 0.0

    def test_heavy_value_degenerate_buckets(self):
        values = np.concatenate([np.zeros(900), np.arange(100)])
        hist = EquiDepthHistogram(values, num_buckets=8)
        frac = hist.range_fraction(0, 0)
        assert frac > 0.5


class TestDiscretizer:
    def test_value_kind_for_small_domains(self):
        disc = Discretizer(np.array([3, 5, 9]), max_bins=10)
        assert disc.kind == "value"
        assert disc.n_bins == 3

    def test_width_kind_for_large_domains(self):
        disc = Discretizer(np.arange(100), max_bins=10)
        assert disc.kind == "width"
        assert disc.n_bins == 10

    def test_transform_bounds(self):
        values = np.random.default_rng(0).integers(0, 1000, 200)
        disc = Discretizer(values, max_bins=16)
        ids = disc.transform(values)
        assert ids.min() >= 0 and ids.max() < disc.n_bins

    def test_value_kind_range_mass_is_indicator(self):
        disc = Discretizer(np.array([1, 4, 7]), max_bins=10)
        np.testing.assert_array_equal(disc.range_mass(4, 7), [0, 1, 1])

    def test_range_mass_bounds(self):
        disc = Discretizer(np.arange(500), max_bins=8)
        mass = disc.range_mass(100, 300)
        assert np.all(mass >= 0) and np.all(mass <= 1)

    def test_empty_range_mass(self):
        disc = Discretizer(np.arange(50), max_bins=8)
        assert disc.range_mass(10, 5).sum() == 0.0

    def test_full_mass(self):
        disc = Discretizer(np.arange(50), max_bins=8)
        np.testing.assert_array_equal(disc.full_mass(), np.ones(8))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100), lo=st.integers(0, 99), width=st.integers(0, 99))
    def test_mass_weighted_probability_approximates_truth(self, seed, lo, width):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 100, 2000)
        disc = Discretizer(values, max_bins=20)
        ids = disc.transform(values)
        probs = np.bincount(ids, minlength=disc.n_bins) / len(values)
        hi = min(99, lo + width)
        estimated = float(np.dot(probs, disc.range_mass(lo, hi)))
        truth = float(np.mean((values >= lo) & (values <= hi)))
        assert estimated == pytest.approx(truth, abs=0.08)

    def test_range_mass_matches_bin_loop(self):
        rng = np.random.default_rng(7)
        kinds = set()
        for case in range(400):
            low = int(rng.integers(-1000, 1000))
            span = int(rng.integers(1, 5000))
            values = rng.integers(low, low + span, int(rng.integers(1, 300)))
            disc = Discretizer(values, max_bins=int(rng.choice([4, 16, 64])))
            kinds.add(disc.kind)
            a, b = (int(v) for v in rng.integers(low - span // 4, low + span * 5 // 4, 2))
            # Wide, inverted, one-bin and bin-straddling ranges, and ones past
            # either end of the domain.
            for lo, hi in [(a, b), (b, a), (a, a), (a, a + 1), (low - 10, low - 1),
                           (low + span + 1, low + span + 9), (low - 5, low + span + 5)]:
                got = disc.range_mass(lo, hi)
                want = reference_range_mass(disc, lo, hi)
                assert got.tobytes() == want.tobytes(), (case, lo, hi)
        assert kinds == {"value", "width"}

    def test_range_mass_numpy_integer_bounds(self):
        disc = Discretizer(np.arange(1000), max_bins=64)
        lo, hi = np.int64(123), np.int64(456)
        assert (disc.range_mass(lo, hi).tobytes()
                == reference_range_mass(disc, lo, hi).tobytes())
