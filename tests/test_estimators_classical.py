"""Tests for the exact / sampling / KDE / histogram estimators."""

import numpy as np
import pytest

from repro.estimators import (
    ExactCardinalityEstimator,
    KDECardinalityEstimator,
    RadialHistogramEstimator,
    SamplingCardinalityEstimator,
)
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.index import BruteForceIndex

from repro.testing import make_blobs_on_sphere


@pytest.fixture(scope="module")
def data():
    X, _ = make_blobs_on_sphere(50, 3, 16, spread=0.35, seed=0)
    return X


class TestExactOracle:
    def test_counts_are_exact(self, data):
        est = ExactCardinalityEstimator().fit(data).bind(data)
        index = BruteForceIndex().build(data)
        counts = est.estimate_many(data[:20], 0.5)
        expected = index.batch_range_count(data[:20], 0.5)
        assert np.array_equal(counts.astype(int), expected)

    def test_fraction_form(self, data):
        est = ExactCardinalityEstimator().fit(data).bind(data)
        fracs = est.predict_fraction(data[:5], 0.5)
        counts = est.estimate_many(data[:5], 0.5)
        assert np.allclose(fracs * data.shape[0], counts)

    def test_unbound_raises(self, data):
        est = ExactCardinalityEstimator().fit(data)
        with pytest.raises(NotFittedError):
            est.estimate_many(data[:2], 0.5)

    def test_bind_to_subset_counts_subset(self, data):
        est = ExactCardinalityEstimator().fit(data).bind(data[:30])
        index = BruteForceIndex().build(data[:30])
        assert np.array_equal(
            est.estimate_many(data[:5], 0.6).astype(int),
            index.batch_range_count(data[:5], 0.6),
        )


class TestSamplingEstimator:
    def test_full_sample_is_exact_fraction(self, data):
        est = SamplingCardinalityEstimator(sample_size=10_000, seed=0).fit(data)
        est = est.bind(data)
        index = BruteForceIndex().build(data)
        counts = est.estimate_many(data[:10], 0.5)
        expected = index.batch_range_count(data[:10], 0.5)
        assert np.allclose(counts, expected)

    def test_small_sample_unbiased_ballpark(self, data):
        est = SamplingCardinalityEstimator(sample_size=60, seed=1).fit(data)
        est = est.bind(data)
        index = BruteForceIndex().build(data)
        predicted = est.estimate_many(data, 0.5).mean()
        actual = index.batch_range_count(data, 0.5).mean()
        assert predicted == pytest.approx(actual, rel=0.35)

    def test_unfitted_raises(self, data):
        est = SamplingCardinalityEstimator()
        est = est.bind(data)
        with pytest.raises(NotFittedError):
            est.estimate_many(data[:2], 0.5)

    def test_invalid_sample_size(self):
        with pytest.raises(InvalidParameterError):
            SamplingCardinalityEstimator(sample_size=0)


class TestKDEEstimator:
    def test_fraction_in_unit_interval(self, data):
        est = KDECardinalityEstimator(sample_size=64, seed=0).fit(data)
        fracs = est.predict_fraction(data[:15], 0.5)
        assert (fracs >= 0).all() and (fracs <= 1).all()

    def test_monotone_in_radius(self, data):
        est = KDECardinalityEstimator(sample_size=64, seed=0).fit(data)
        small = est.predict_fraction(data[:10], 0.2)
        large = est.predict_fraction(data[:10], 0.9)
        assert (large >= small).all()

    def test_tracks_truth_loosely(self, data):
        est = KDECardinalityEstimator(sample_size=150, bandwidth=0.02, seed=0).fit(data)
        est = est.bind(data)
        index = BruteForceIndex().build(data)
        predicted = est.estimate_many(data, 0.5)
        actual = index.batch_range_count(data, 0.5)
        corr = np.corrcoef(predicted, actual)[0, 1]
        assert corr > 0.8

    def test_explicit_bandwidth_respected(self, data):
        est = KDECardinalityEstimator(bandwidth=0.5, seed=0).fit(data)
        assert est._h == 0.5

    def test_invalid_params(self):
        with pytest.raises(InvalidParameterError):
            KDECardinalityEstimator(sample_size=-1)
        with pytest.raises(InvalidParameterError):
            KDECardinalityEstimator(bandwidth=0.0)

    def test_unfitted_raises(self, data):
        est = KDECardinalityEstimator()
        est = est.bind(data)
        with pytest.raises(NotFittedError):
            est.estimate_many(data[:2], 0.5)


class TestHistogramEstimator:
    def test_fraction_bounds(self, data):
        est = RadialHistogramEstimator(n_pivots=8, seed=0).fit(data)
        fracs = est.predict_fraction(data[:15], 0.5)
        assert (fracs >= 0).all() and (fracs <= 1).all()

    def test_monotone_in_radius(self, data):
        est = RadialHistogramEstimator(n_pivots=8, seed=0).fit(data)
        small = est.predict_fraction(data[:10], 0.1)
        large = est.predict_fraction(data[:10], 1.5)
        assert (large >= small).all()

    def test_pivot_query_is_reasonable(self, data):
        # Querying exactly at a pivot should reproduce that pivot's CDF.
        est = RadialHistogramEstimator(n_pivots=4, n_bins=128, seed=0).fit(data)
        est = est.bind(data)
        index = BruteForceIndex().build(data)
        pivot = est._pivots[0]
        predicted = est.estimate(pivot, 0.5)
        actual = index.range_count(pivot, 0.5)
        assert predicted == pytest.approx(actual, rel=0.25, abs=5)

    def test_invalid_params(self):
        with pytest.raises(InvalidParameterError):
            RadialHistogramEstimator(n_pivots=0)
        with pytest.raises(InvalidParameterError):
            RadialHistogramEstimator(n_bins=0)

    def test_unfitted_raises(self, data):
        est = RadialHistogramEstimator()
        est = est.bind(data)
        with pytest.raises(NotFittedError):
            est.estimate_many(data[:2], 0.5)
