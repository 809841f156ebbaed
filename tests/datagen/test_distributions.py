"""The Eq. 1 skew sampler and the F2 correlation process."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import measure_equality_correlation
from repro.datagen.distributions import (apply_column_correlation,
                                         sample_skewed_column,
                                         sample_skewed_unit, skew_cdf)


class TestSkewSampler:
    def test_zero_skew_is_uniform(self):
        rng = np.random.default_rng(0)
        samples = sample_skewed_unit(rng, 50_000, 0.0)
        # Uniform: mean 0.5, each decile ≈ 10 %.
        assert abs(samples.mean() - 0.5) < 0.01
        hist, _ = np.histogram(samples, bins=10, range=(0, 1))
        assert np.all(np.abs(hist / 5000 - 1.0) < 0.1)

    def test_mean_decreases_with_skew(self):
        rng = np.random.default_rng(1)
        means = [sample_skewed_unit(np.random.default_rng(1), 20_000, s).mean()
                 for s in (0.0, 0.3, 0.6, 0.9)]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_samples_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for skew in (0.0, 0.5, 0.99, 1.0):
            samples = sample_skewed_unit(rng, 1000, skew)
            assert samples.min() >= 0.0 and samples.max() <= 1.0

    def test_cdf_monotone_and_normalized(self):
        grid = np.linspace(0, 1, 101)
        for skew in (0.0, 0.2, 0.7, 0.95):
            cdf = skew_cdf(grid, skew)
            assert cdf[0] == pytest.approx(0.0, abs=1e-12)
            assert cdf[-1] == pytest.approx(1.0, abs=1e-9)
            assert np.all(np.diff(cdf) >= -1e-12)

    @settings(max_examples=20, deadline=None)
    @given(skew=st.floats(0.0, 0.99), u=st.floats(0.01, 0.99))
    def test_inverse_cdf_property(self, skew, u):
        """CDF(inverse(u)) == u for the closed-form sampler."""
        rng = np.random.default_rng(0)

        class FixedRng:
            def random(self, size):
                return np.full(size, u)

        x = sample_skewed_unit(FixedRng(), 1, skew)[0]
        assert skew_cdf(np.array([x]), skew)[0] == pytest.approx(u, abs=1e-6)

    def test_integer_column_domain(self):
        values = sample_skewed_column(0, 5000, 0.5, 3, 17)
        assert values.min() >= 3 and values.max() <= 17
        assert values.dtype == np.int64

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            sample_skewed_column(0, 10, 0.5, 5, 4)


class TestColumnCorrelation:
    def test_zero_correlation_is_copy(self):
        rng = np.random.default_rng(0)
        target = np.arange(100)
        out = apply_column_correlation(rng, np.zeros(100, dtype=np.int64),
                                       target, 0.0)
        np.testing.assert_array_equal(out, target)
        assert out is not target  # defensive copy

    def test_full_correlation_copies_source(self):
        rng = np.random.default_rng(0)
        source = np.arange(100)
        out = apply_column_correlation(rng, source, np.zeros(100, dtype=np.int64),
                                       1.0)
        np.testing.assert_array_equal(out, source)

    def test_invalid_correlation_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            apply_column_correlation(rng, np.arange(3), np.arange(3), 1.5)

    @settings(max_examples=15, deadline=None)
    @given(corr=st.floats(0.0, 1.0))
    def test_roundtrip_measurement(self, corr):
        """Measured equality correlation ≈ the injected strength (F2⁻¹)."""
        rng = np.random.default_rng(42)
        source = rng.integers(0, 1000, 20_000)
        target = rng.integers(1000, 2000, 20_000)  # disjoint domains
        mixed = apply_column_correlation(rng, source, target, corr)
        measured = measure_equality_correlation(source, mixed)
        assert measured == pytest.approx(corr, abs=0.02)

    def test_measure_empty(self):
        assert measure_equality_correlation(np.array([]), np.array([])) == 0.0
