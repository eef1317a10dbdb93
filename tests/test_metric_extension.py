"""Tests for the Euclidean-metric extension (the paper's future work).

The paper: "our method does not have a hard constraint on the distance
metric, so we may explore Euclidean distance in future work". These
tests exercise that path end to end: metric registry, brute-force index,
DBSCAN, LAF-DBSCAN (lossless with the oracle), and a learned RMI trained
on a data-driven Euclidean radius grid.
"""

import numpy as np
import pytest

from repro.clustering import DBSCAN
from repro.core import LAFDBSCAN
from repro.distances import COSINE, EUCLIDEAN, get_metric, suggest_radii
from repro.estimators import (
    ExactCardinalityEstimator,
    RMICardinalityEstimator,
    build_training_set,
)
from repro.exceptions import InvalidParameterError
from repro.index import BruteForceIndex
from repro.metrics import adjusted_rand_index


def make_euclidean_blobs(n_per=40, n_clusters=3, dim=8, seed=0):
    """Plain (non-normalized!) Gaussian blobs in Euclidean space."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-10, 10, size=(n_clusters, dim))
    parts, labels = [], []
    for c, center in enumerate(centers):
        parts.append(center + 0.4 * rng.normal(size=(n_per, dim)))
        labels.append(np.full(n_per, c))
    X = np.vstack(parts)
    y = np.concatenate(labels)
    order = rng.permutation(X.shape[0])
    return X[order], y[order]


class TestMetricRegistry:
    def test_get_by_name(self):
        assert get_metric("cosine") is COSINE
        assert get_metric("euclidean") is EUCLIDEAN

    def test_instance_passthrough(self):
        assert get_metric(COSINE) is COSINE

    def test_unknown_metric(self):
        with pytest.raises(InvalidParameterError):
            get_metric("manhattan")

    def test_eps_bounds(self):
        COSINE.check_eps(1.9)
        with pytest.raises(InvalidParameterError):
            COSINE.check_eps(2.1)
        EUCLIDEAN.check_eps(50.0)  # unbounded domain
        with pytest.raises(InvalidParameterError):
            EUCLIDEAN.check_eps(0.0)

    def test_euclidean_accepts_unnormalized(self):
        X, _ = make_euclidean_blobs()
        EUCLIDEAN.validate(X)  # must not raise

    def test_suggest_radii_spans_data(self):
        X, _ = make_euclidean_blobs()
        radii = suggest_radii(X, "euclidean", n_radii=5, seed=0)
        assert len(radii) == 5
        assert all(r > 0 for r in radii)
        assert list(radii) == sorted(radii)
        # The grid must bracket the within-blob distance scale (~0.4*sqrt(8)).
        assert radii[0] < 3.0 < radii[-1]


class TestEuclideanBruteForce:
    def test_range_query_matches_naive(self):
        X, _ = make_euclidean_blobs(seed=1)
        index = BruteForceIndex(metric="euclidean").build(X)
        q = X[5]
        eps = 2.0
        expected = set(np.flatnonzero(np.linalg.norm(X - q, axis=1) < eps).tolist())
        assert set(index.range_query(q, eps).tolist()) == expected

    def test_batched_counts_match(self):
        X, _ = make_euclidean_blobs(seed=2)
        index = BruteForceIndex(metric="euclidean").build(X)
        counts = index.batch_range_count(X[:10], 2.0)
        singles = [index.range_count(q, 2.0) for q in X[:10]]
        assert counts.tolist() == singles


class TestEuclideanDBSCAN:
    def test_recovers_blobs(self):
        X, y = make_euclidean_blobs(seed=4)
        result = DBSCAN(eps=2.0, tau=4, metric="euclidean").fit(X)
        assert result.n_clusters == 3
        assert adjusted_rand_index(y, result.labels) > 0.95

    def test_eps_above_two_valid(self):
        X, y = make_euclidean_blobs(seed=5)
        result = DBSCAN(eps=5.0, tau=4, metric="euclidean").fit(X)
        assert result.labels.shape == (X.shape[0],)

    def test_cosine_still_rejects_unnormalized(self):
        X, _ = make_euclidean_blobs()
        from repro.exceptions import DataValidationError

        with pytest.raises(DataValidationError):
            DBSCAN(eps=0.5, tau=3).fit(X)


class TestEuclideanLAF:
    def test_oracle_lossless_in_euclidean(self):
        X, _ = make_euclidean_blobs(seed=6)
        exact = DBSCAN(eps=2.0, tau=4, metric="euclidean").fit(X)
        laf = LAFDBSCAN(
            eps=2.0,
            tau=4,
            estimator=ExactCardinalityEstimator(metric="euclidean"),
            alpha=1.0,
            metric="euclidean",
        ).fit(X)
        assert np.array_equal(exact.labels, laf.labels)
        assert laf.stats["skipped_queries"] >= 0

    def test_learned_rmi_euclidean_end_to_end(self):
        X, y = make_euclidean_blobs(n_per=60, seed=7)
        radii = suggest_radii(X, "euclidean", n_radii=7, seed=0)
        estimator = RMICardinalityEstimator(
            hidden_layers=(32, 16),
            epochs=40,
            radii=radii,
            metric="euclidean",
            seed=0,
        ).fit(X)
        exact = DBSCAN(eps=2.0, tau=4, metric="euclidean").fit(X)
        laf = LAFDBSCAN(
            eps=2.0, tau=4, estimator=estimator, alpha=1.0, metric="euclidean"
        ).fit(X)
        assert adjusted_rand_index(exact.labels, laf.labels) > 0.7

    def test_training_set_euclidean_radii_validated(self):
        X, _ = make_euclidean_blobs()
        ts = build_training_set(X, radii=(1.0, 5.0), metric="euclidean")
        assert ts.radii == (1.0, 5.0)
        # Cosine would reject radii above 2.
        with pytest.raises(InvalidParameterError):
            build_training_set(X, radii=(5.0,), metric="cosine")
