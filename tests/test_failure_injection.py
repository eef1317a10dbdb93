"""Failure injection: LAF must degrade gracefully under broken estimators.

A plugin framework is judged by what happens when the plugin misbehaves.
These tests drive LAF-DBSCAN with adversarial estimators — constant-zero
(everything predicted stop), constant-infinity (nothing skipped),
anti-oracle (inverted predictions) and a NaN producer — and assert the
framework's contracts instead of crashing or corrupting labels.
"""

import numpy as np

from repro.clustering import DBSCAN
from repro.core import LAFDBSCAN, LAFDBSCANPlusPlus
from repro.estimators import CardinalityEstimator, ExactCardinalityEstimator
from repro.index import BruteForceIndex
from repro.metrics import adjusted_rand_index


class ConstantEstimator(CardinalityEstimator):
    """Predicts the same fraction for every query."""

    def __init__(self, fraction: float) -> None:
        self.fraction = fraction

    def fit(self, X_train):
        return self

    def predict_fraction(self, Q, eps):
        return np.full(np.atleast_2d(Q).shape[0], self.fraction)


class AntiOracleEstimator(CardinalityEstimator):
    """Deliberately inverted: high counts for sparse points and vice versa."""

    def fit(self, X_train):
        return self

    def bind(self, X_target):
        super().bind(X_target)
        self._index = BruteForceIndex().build(np.asarray(X_target, dtype=np.float64))
        return self

    def predict_fraction(self, Q, eps):
        true = self._index.batch_range_count(np.atleast_2d(Q), eps) / self.n_target
        return 1.0 - true


class NaNEstimator(ConstantEstimator):
    def __init__(self):
        super().__init__(np.nan)


class TestConstantZero:
    """Everything predicted stop: no queries, all noise, empty E-evidence."""

    def test_all_noise_no_queries(self, clusterable_data):
        result = LAFDBSCAN(
            eps=0.5, tau=5, estimator=ConstantEstimator(0.0), alpha=1.0
        ).fit(clusterable_data)
        assert result.noise_ratio == 1.0
        assert result.stats["range_queries"] == 0
        # No queries ever ran, so E has no evidence; nothing merges.
        assert result.stats["merges"] == 0


class TestConstantMax:
    """Everything predicted core: zero skips, output equals plain DBSCAN."""

    def test_equals_dbscan(self, clusterable_data):
        exact = DBSCAN(eps=0.5, tau=5).fit(clusterable_data)
        result = LAFDBSCAN(
            eps=0.5, tau=5, estimator=ConstantEstimator(1.0), alpha=1.0
        ).fit(clusterable_data)
        assert result.stats["skipped_queries"] == 0
        assert np.array_equal(result.labels, exact.labels)

    def test_laf_dbscanpp_no_skips(self, clusterable_data):
        result = LAFDBSCANPlusPlus(
            eps=0.5, tau=5, estimator=ConstantEstimator(1.0), p=0.5, seed=0
        ).fit(clusterable_data)
        assert result.stats["skipped_queries"] == 0


class TestAntiOracle:
    """Inverted predictions: worst case, but output must stay well-formed
    and post-processing must detect the false negatives it can prove."""

    def test_labels_well_formed(self, clusterable_data):
        result = LAFDBSCAN(
            eps=0.5, tau=5, estimator=AntiOracleEstimator(), alpha=1.0, seed=0
        ).fit(clusterable_data)
        labels = result.labels
        assert labels.min() >= -1
        non_noise = np.unique(labels[labels >= 0])
        assert list(non_noise) == list(range(len(non_noise)))

    def test_quality_is_poor_but_finite(self, clusterable_data):
        exact = DBSCAN(eps=0.5, tau=5).fit(clusterable_data)
        result = LAFDBSCAN(
            eps=0.5, tau=5, estimator=AntiOracleEstimator(), alpha=1.0, seed=0
        ).fit(clusterable_data)
        score = adjusted_rand_index(exact.labels, result.labels)
        assert np.isfinite(score)
        oracle = LAFDBSCAN(
            eps=0.5, tau=5, estimator=ExactCardinalityEstimator(), alpha=1.0
        ).fit(clusterable_data)
        assert adjusted_rand_index(exact.labels, oracle.labels) >= score


class TestNaNEstimator:
    """NaN predictions fail the gate comparison (NaN >= x is False), so
    every point is treated as a stop point — defined, not poisoned."""

    def test_nan_treated_as_stop(self, clusterable_data):
        result = LAFDBSCAN(eps=0.5, tau=5, estimator=NaNEstimator(), alpha=1.0).fit(
            clusterable_data
        )
        assert result.noise_ratio == 1.0
        assert not np.isnan(result.labels).any()


class TestEstimatorContractViolations:
    def test_negative_fraction_clipped(self, clusterable_data):
        result = LAFDBSCAN(
            eps=0.5, tau=5, estimator=ConstantEstimator(-3.0), alpha=1.0
        ).fit(clusterable_data)
        assert result.noise_ratio == 1.0  # clipped to zero -> all stop

    def test_fraction_above_one_clipped(self, clusterable_data):
        exact = DBSCAN(eps=0.5, tau=5).fit(clusterable_data)
        result = LAFDBSCAN(
            eps=0.5, tau=5, estimator=ConstantEstimator(50.0), alpha=1.0
        ).fit(clusterable_data)
        # Clipped to 1.0 -> everything predicted core -> DBSCAN output.
        assert np.array_equal(result.labels, exact.labels)
