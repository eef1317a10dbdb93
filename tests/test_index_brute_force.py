"""Tests for the exact brute-force index."""

import numpy as np
import pytest

from repro.distances import cosine_distance, normalize_rows
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.index import BruteForceIndex


@pytest.fixture(scope="module")
def index(unit_vectors_small):
    return BruteForceIndex().build(unit_vectors_small)


class TestBuild:
    def test_n_points(self, index, unit_vectors_small):
        assert index.n_points == unit_vectors_small.shape[0]

    def test_points_property(self, index, unit_vectors_small):
        assert np.array_equal(index.points, unit_vectors_small)

    def test_unbuilt_raises(self):
        with pytest.raises(NotFittedError):
            BruteForceIndex().range_query(np.zeros(4), 0.5)

    def test_points_before_build_raises(self):
        with pytest.raises(NotFittedError):
            _ = BruteForceIndex().points

    def test_rejects_unnormalized(self):
        from repro.exceptions import DataValidationError

        with pytest.raises(DataValidationError):
            BruteForceIndex().build(np.ones((4, 4)))

    def test_invalid_block_size(self):
        with pytest.raises(InvalidParameterError):
            BruteForceIndex(block_size=0)


class TestRangeQuery:
    def test_point_is_own_neighbor(self, index, unit_vectors_small):
        hits = index.range_query(unit_vectors_small[3], eps=0.4)
        assert 3 in hits

    def test_matches_naive_filter(self, index, unit_vectors_small):
        q = unit_vectors_small[10]
        eps = 0.7
        expected = {
            i
            for i, x in enumerate(unit_vectors_small)
            if cosine_distance(q, x) < eps
        }
        assert set(index.range_query(q, eps).tolist()) == expected

    def test_strict_inequality(self):
        # A point at exactly eps must be excluded.
        X = normalize_rows(np.array([[1.0, 0.0], [0.0, 1.0]]))
        index = BruteForceIndex().build(X)
        hits = index.range_query(X[0], eps=1.0)  # d(e1, e2) == 1.0 exactly
        assert hits.tolist() == [0]

    def test_eps_two_returns_all_but_antipode(self, index):
        hits = index.range_query(index.points[0], eps=2.0)
        assert hits.size >= index.n_points - 1

    def test_range_count_consistent(self, index, unit_vectors_small):
        for eps in (0.2, 0.5, 1.0):
            q = unit_vectors_small[7]
            assert index.range_count(q, eps) == index.range_query(q, eps).size


class TestKnnQuery:
    def test_nearest_is_self(self, index, unit_vectors_small):
        idx, dists = index.knn_query(unit_vectors_small[4], k=1)
        assert idx[0] == 4
        assert dists[0] == pytest.approx(0.0, abs=1e-12)

    def test_sorted_by_distance(self, index, unit_vectors_small):
        _, dists = index.knn_query(unit_vectors_small[0], k=10)
        assert np.all(np.diff(dists) >= -1e-12)

    def test_k_capped_at_n(self, index):
        idx, _ = index.knn_query(index.points[0], k=10_000)
        assert idx.size == index.n_points

    def test_matches_argsort(self, index, unit_vectors_small):
        q = unit_vectors_small[9]
        idx, _ = index.knn_query(q, k=5)
        full = 1.0 - unit_vectors_small @ q
        expected = np.argsort(full, kind="stable")[:5]
        assert set(idx.tolist()) == set(expected.tolist())

    def test_invalid_k(self, index):
        with pytest.raises(InvalidParameterError):
            index.knn_query(index.points[0], k=0)


@pytest.fixture(scope="module", params=[16, 768], ids=["d16", "d768"])
def batch_points(request, unit_vectors_small):
    """The generic fixture, and unit vectors at the paper's dimension."""
    if request.param == 16:
        return unit_vectors_small
    rng = np.random.default_rng(11)
    centers = normalize_rows(rng.normal(size=(3, 768)))
    return normalize_rows(
        np.repeat(centers, 20, axis=0) + 0.04 * rng.normal(size=(60, 768))
    )


class TestBatchedForms:
    def test_batch_range_count_matches_single(self, batch_points):
        index = BruteForceIndex().build(batch_points)
        Q = batch_points[:9]
        counts = index.batch_range_count(Q, eps=0.6)
        singles = [index.range_count(q, 0.6) for q in Q]
        assert counts.tolist() == singles

    def test_batch_range_query_matches_single(self, batch_points):
        index = BruteForceIndex().build(batch_points)
        Q = batch_points[5:12]
        results = index.batch_range_query(Q, eps=0.8)
        for q, hits in zip(Q, results):
            assert np.array_equal(hits, index.range_query(q, 0.8))

    def test_blockwise_equals_unblocked(self, batch_points):
        small_blocks = BruteForceIndex(block_size=3).build(batch_points)
        counts_a = small_blocks.batch_range_count(batch_points, 0.5)
        counts_b = BruteForceIndex().build(batch_points).batch_range_count(
            batch_points, 0.5
        )
        assert np.array_equal(counts_a, counts_b)

    def test_multi_eps_counts(self, batch_points):
        index = BruteForceIndex().build(batch_points)
        Q = batch_points[:6]
        radii = np.array([0.2, 0.5, 0.9])
        grid = index.range_count_multi_eps(Q, radii)
        assert grid.shape == (6, 3)
        for j, eps in enumerate(radii):
            assert np.array_equal(grid[:, j], index.batch_range_count(Q, float(eps)))

    def test_multi_eps_monotone_in_radius(self, index, unit_vectors_small):
        grid = index.range_count_multi_eps(
            unit_vectors_small, np.array([0.1, 0.5, 1.5])
        )
        assert (np.diff(grid, axis=1) >= 0).all()
