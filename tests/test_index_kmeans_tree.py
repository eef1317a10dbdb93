"""Tests for the FLANN-style k-means tree."""

import numpy as np
import pytest

from repro.distances import normalize_rows
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.index import BruteForceIndex, KMeansTree

from repro.testing import make_blobs_on_sphere


def random_unit(n, dim, seed):
    rng = np.random.default_rng(seed)
    return normalize_rows(rng.normal(size=(n, dim)))


@pytest.fixture(scope="module")
def data():
    return random_unit(200, 12, seed=3)


class TestConstruction:
    def test_invalid_params(self):
        with pytest.raises(InvalidParameterError):
            KMeansTree(branching=1)
        with pytest.raises(InvalidParameterError):
            KMeansTree(checks_ratio=0.0)
        with pytest.raises(InvalidParameterError):
            KMeansTree(checks_ratio=1.5)
        with pytest.raises(InvalidParameterError):
            KMeansTree(leaf_size=0)

    def test_builds_leaves(self, data):
        tree = KMeansTree(branching=4, leaf_size=16, seed=0).build(data)
        assert tree.n_leaves >= data.shape[0] // 16

    def test_unbuilt_raises(self):
        with pytest.raises(NotFittedError):
            KMeansTree().knn_query(np.zeros(4), 3)

    def test_duplicate_points_fall_back_to_leaf(self):
        X = normalize_rows(np.ones((40, 5)))
        tree = KMeansTree(branching=4, leaf_size=4, seed=0).build(X)
        idx, dists = tree.knn_query(X[0], k=3)
        assert idx.size == 3
        assert np.allclose(dists, 0.0, atol=1e-9)

    def test_deterministic_given_seed(self, data):
        t1 = KMeansTree(seed=5).build(data)
        t2 = KMeansTree(seed=5).build(data)
        i1, d1 = t1.knn_query(data[0], 7)
        i2, d2 = t2.knn_query(data[0], 7)
        assert np.array_equal(i1, i2)


class TestExactModes:
    """checks_ratio = 1.0 visits every leaf -> exact results."""

    def test_knn_exact_at_full_checks(self, data):
        tree = KMeansTree(branching=4, checks_ratio=1.0, leaf_size=8, seed=1).build(
            data
        )
        brute = BruteForceIndex().build(data)
        for qi in (0, 50, 150):
            t_idx, t_d = tree.knn_query(data[qi], k=8)
            b_idx, b_d = brute.knn_query(data[qi], k=8)
            assert np.allclose(np.sort(t_d), np.sort(b_d), atol=1e-9)


    @pytest.mark.parametrize(
        "branching,leaf_size",
        [(2, 1), (2, 2), (3, 5), (8, 4), (4, 300)],
        ids=["binary_unit_leaves", "binary", "ternary", "wide", "one_leaf"],
    )
    def test_knn_exact_across_tree_shapes(self, data, branching, leaf_size):
        tree = KMeansTree(
            branching=branching, checks_ratio=1.0, leaf_size=leaf_size, seed=2
        ).build(data)
        brute = BruteForceIndex().build(data)
        for qi in range(0, data.shape[0], 25):
            t_idx, t_d = tree.knn_query(data[qi], k=6)
            b_idx, b_d = brute.knn_query(data[qi], k=6)
            assert set(t_idx.tolist()) == set(b_idx.tolist()), qi
            assert np.allclose(t_d, b_d, atol=1e-9), qi


class TestSingleLeafKMeansTree:
    """n <= max(leaf_size, branching) makes the root itself the leaf."""

    def test_whole_dataset_in_one_leaf(self):
        X, _ = make_blobs_on_sphere(6, 2, 8, spread=0.2, seed=1)  # 12 points
        tree = KMeansTree(leaf_size=32, seed=0).build(X)
        assert tree.n_leaves == 1
        idx, dists = tree.knn_query(X[3], k=12)
        assert np.array_equal(np.sort(idx), np.arange(12))
        assert idx[0] == 3

    def test_single_leaf_is_exact_even_at_low_checks(self):
        X, _ = make_blobs_on_sphere(6, 2, 8, spread=0.2, seed=1)
        tree = KMeansTree(leaf_size=32, checks_ratio=0.01, seed=0).build(X)
        assert tree.n_leaves == 1
        brute = BruteForceIndex().build(X)
        for q in X:
            t_idx, t_d = tree.knn_query(q, k=4)
            b_idx, b_d = brute.knn_query(q, k=4)
            assert set(t_idx.tolist()) == set(b_idx.tolist())
            assert np.allclose(t_d, b_d, atol=1e-9)


class TestApproximateModes:
    def test_low_checks_returns_k_results(self, data):
        tree = KMeansTree(branching=4, checks_ratio=0.05, leaf_size=8, seed=2).build(
            data
        )
        idx, dists = tree.knn_query(data[0], k=5)
        assert idx.size == 5
        assert np.all(np.diff(dists) >= -1e-12)

    def test_recall_improves_with_checks(self):
        X, _ = make_blobs_on_sphere(60, 4, 16, spread=0.3, seed=8)
        brute = BruteForceIndex().build(X)
        recalls = []
        for ratio in (0.05, 1.0):
            tree = KMeansTree(
                branching=5, checks_ratio=ratio, leaf_size=8, seed=3
            ).build(X)
            hits = 0
            for qi in range(0, X.shape[0], 5):
                b_idx, _ = brute.knn_query(X[qi], k=10)
                t_idx, _ = tree.knn_query(X[qi], k=10)
                hits += len(set(b_idx.tolist()) & set(t_idx.tolist()))
            recalls.append(hits)
        assert recalls[1] >= recalls[0]

    def test_nearest_self_found_even_with_low_checks(self, data):
        # Greedy descent always reaches the leaf containing the query
        # region, so the query point itself is essentially always found.
        tree = KMeansTree(branching=4, checks_ratio=0.02, leaf_size=8, seed=4).build(
            data
        )
        idx, dists = tree.knn_query(data[42], k=1)
        assert dists[0] == pytest.approx(0.0, abs=1e-9)

    def test_invalid_k(self, data):
        tree = KMeansTree(seed=0).build(data)
        with pytest.raises(InvalidParameterError):
            tree.knn_query(data[0], k=-1)


class TestExactKnnAgainstBruteForce:
    """The scalar KNN search KNN-BLOCK DBSCAN runs, checked against the
    exact brute-force oracle with the tree in exact mode."""

    @pytest.fixture(scope="class")
    def exact_tree(self, data):
        return KMeansTree(
            branching=4, checks_ratio=1.0, leaf_size=8, seed=1
        ).build(data)

    @pytest.fixture(scope="class")
    def brute(self, data):
        return BruteForceIndex().build(data)

    @pytest.mark.parametrize("k", [1, 5, 17])
    def test_rows_match_oracle(self, exact_tree, brute, data, k):
        for i in range(0, data.shape[0], 10):
            t_idx, t_d = exact_tree.knn_query(data[i], k)
            b_idx, b_d = brute.knn_query(data[i], k)
            assert t_idx.dtype == np.int64, i
            assert set(t_idx.tolist()) == set(b_idx.tolist()), i
            assert np.allclose(t_d, b_d, atol=1e-9), i

    def test_external_query_point(self, exact_tree, brute):
        q = random_unit(1, 12, seed=99)[0]
        t_idx, t_d = exact_tree.knn_query(q, 9)
        b_idx, b_d = brute.knn_query(q, 9)
        assert set(t_idx.tolist()) == set(b_idx.tolist())
        assert np.allclose(t_d, b_d, atol=1e-9)

    def test_k_clamps_to_dataset(self, exact_tree, data):
        idx, dists = exact_tree.knn_query(data[7], k=10 * data.shape[0])
        assert np.array_equal(np.sort(idx), np.arange(data.shape[0]))
        assert idx[0] == 7
        assert np.all(np.diff(dists) >= 0.0)
