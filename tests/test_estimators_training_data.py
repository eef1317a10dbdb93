"""Tests for the cardinality training-set builder."""

import numpy as np
import pytest

from repro.distances import normalize_rows
from repro.estimators import build_training_set
from repro.estimators.training_data import DEFAULT_RADII, make_features
from repro.exceptions import DataValidationError, InvalidParameterError
from repro.index import BruteForceIndex


@pytest.fixture(scope="module")
def train_matrix():
    rng = np.random.default_rng(0)
    return normalize_rows(rng.normal(size=(80, 12)))


class TestDefaults:
    def test_paper_radius_grid(self):
        assert DEFAULT_RADII == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


class TestMakeFeatures:
    def test_appends_radius_column(self):
        Q = np.ones((3, 4))
        feats = make_features(Q, 0.5)
        assert feats.shape == (3, 5)
        assert np.all(feats[:, -1] == 0.5)

    def test_single_vector(self):
        feats = make_features(np.ones(4), 0.3)
        assert feats.shape == (1, 5)


class TestBuildTrainingSet:
    def test_shapes(self, train_matrix):
        ts = build_training_set(train_matrix, n_queries=10, radii=(0.3, 0.6), seed=0)
        assert ts.features.shape == (20, 13)
        assert ts.fractions.shape == (20,)
        assert ts.n_examples == 20
        assert ts.dim == 12
        assert ts.n_reference == 80

    def test_all_queries_when_none(self, train_matrix):
        ts = build_training_set(train_matrix, n_queries=None, radii=(0.5,), seed=0)
        assert ts.n_examples == 80

    def test_fractions_are_exact_counts(self, train_matrix):
        ts = build_training_set(train_matrix, n_queries=None, radii=(0.4,), seed=0)
        index = BruteForceIndex().build(train_matrix)
        for row in range(0, 80, 11):
            q = ts.features[row, :-1]
            expected = index.range_count(q, 0.4) / 80
            assert ts.fractions[row] == pytest.approx(expected)

    def test_fractions_monotone_in_radius(self, train_matrix):
        ts = build_training_set(
            train_matrix, n_queries=5, radii=(0.2, 0.5, 0.9), seed=1
        )
        per_query = ts.fractions.reshape(5, 3)
        assert (np.diff(per_query, axis=1) >= 0).all()

    def test_radii_sorted_in_features(self, train_matrix):
        ts = build_training_set(train_matrix, n_queries=2, radii=(0.9, 0.1), seed=0)
        assert ts.radii == (0.1, 0.9)
        assert np.allclose(ts.features[:2, -1], [0.1, 0.9])

    def test_fraction_range(self, train_matrix):
        ts = build_training_set(train_matrix, seed=0)
        assert (ts.fractions >= 0).all()
        assert (ts.fractions <= 1).all()
        # Every query is a data point: at tiny radius it finds itself.
        assert (ts.fractions > 0).all()

    def test_deterministic(self, train_matrix):
        a = build_training_set(train_matrix, n_queries=7, seed=3)
        b = build_training_set(train_matrix, n_queries=7, seed=3)
        assert np.array_equal(a.features, b.features)

    def test_invalid_radii(self, train_matrix):
        with pytest.raises(InvalidParameterError):
            build_training_set(train_matrix, radii=())
        with pytest.raises(InvalidParameterError):
            build_training_set(train_matrix, radii=(0.0,))
        with pytest.raises(InvalidParameterError):
            build_training_set(train_matrix, radii=(2.5,))

    def test_invalid_n_queries(self, train_matrix):
        with pytest.raises(InvalidParameterError):
            build_training_set(train_matrix, n_queries=0)

    def test_unnormalized_rejected(self):
        with pytest.raises(DataValidationError):
            build_training_set(np.ones((10, 4)))


@pytest.fixture(scope="module", params=["cosine-d16", "cosine-d768", "euclidean-d8"])
def counted(request):
    """``(points, metric, radii)``: both metrics, and the paper's dimension."""
    rng = np.random.default_rng(11)
    if request.param == "cosine-d16":
        return normalize_rows(rng.normal(size=(60, 16))), "cosine", (0.2, 0.5, 0.9)
    if request.param == "cosine-d768":
        centers = normalize_rows(rng.normal(size=(3, 768)))
        X = normalize_rows(
            np.repeat(centers, 20, axis=0) + 0.04 * rng.normal(size=(60, 768))
        )
        return X, "cosine", (0.1, 0.5, 1.5)
    centers = rng.uniform(-10, 10, size=(3, 8))
    X = np.repeat(centers, 20, axis=0) + rng.normal(size=(60, 8))
    return X, "euclidean", (0.5, 2.0, 10.0)


class TestCounts:
    """The targets are exact range counts, every radius from one block."""

    def test_counts_match_batch_range_count(self, counted):
        X, metric, radii = counted
        ts = build_training_set(X, n_queries=9, radii=radii, seed=2, metric=metric)
        Q = ts.features[:: len(radii), :-1]
        index = BruteForceIndex(metric=metric).build(X)
        per_query = ts.fractions.reshape(9, len(radii))
        for j, eps in enumerate(radii):
            expected = index.batch_range_count(Q, eps) / X.shape[0]
            assert np.array_equal(per_query[:, j], expected)

    def test_counts_monotone_in_radius(self, counted):
        X, metric, radii = counted
        ts = build_training_set(X, radii=radii, metric=metric)
        per_query = ts.fractions.reshape(X.shape[0], len(radii))
        assert (np.diff(per_query, axis=1) >= 0).all()

    def test_counts_span_query_blocks(self):
        # More queries than one distance block holds (1024 rows).
        X = normalize_rows(np.random.default_rng(5).normal(size=(1100, 6)))
        ts = build_training_set(X, radii=(0.3, 0.9), seed=0)
        index = BruteForceIndex().build(X)
        per_query = ts.fractions.reshape(1100, 2)
        for j, eps in enumerate(ts.radii):
            expected = index.batch_range_count(X, eps) / 1100
            assert np.array_equal(per_query[:, j], expected)
