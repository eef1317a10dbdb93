"""Tests for KNN-BLOCK DBSCAN."""

import numpy as np
import pytest

from repro.clustering import DBSCAN, KNNBlockDBSCAN
from repro.distances import normalize_rows
from repro.exceptions import InvalidParameterError
from repro.metrics import adjusted_rand_index

from repro.testing import make_blobs_on_sphere


class TestParameters:
    def test_invalid_block_k(self):
        with pytest.raises(InvalidParameterError):
            KNNBlockDBSCAN(eps=0.5, tau=3, block_k=0)

    def test_invalid_tree_params_propagate(self):
        with pytest.raises(InvalidParameterError):
            KNNBlockDBSCAN(eps=0.5, tau=3, branching=1).fit(
                np.eye(4)  # never reached; constructor validates lazily
            )


class TestExactChecksMode:
    """With checks_ratio = 1 the KNN is exact; results track DBSCAN."""

    def test_blobs_match_dbscan(self, blob_data):
        X, _ = blob_data
        eps, tau = 0.5, 4
        exact = DBSCAN(eps=eps, tau=tau).fit(X)
        block = KNNBlockDBSCAN(eps=eps, tau=tau, checks_ratio=1.0, seed=0).fit(X)
        assert adjusted_rand_index(exact.labels, block.labels) > 0.95

    def test_clusterable_data_close_to_dbscan(self, clusterable_data):
        eps, tau = 0.5, 5
        exact = DBSCAN(eps=eps, tau=tau).fit(clusterable_data)
        block = KNNBlockDBSCAN(eps=eps, tau=tau, checks_ratio=1.0, seed=0).fit(
            clusterable_data
        )
        assert adjusted_rand_index(exact.labels, block.labels) > 0.9

    def test_core_blocks_are_truly_core(self, clusterable_data):
        """Every point the method claims core must satisfy the predicate."""
        eps, tau = 0.5, 5
        from repro.index import BruteForceIndex

        block = KNNBlockDBSCAN(eps=eps, tau=tau, checks_ratio=1.0, seed=0).fit(
            clusterable_data
        )
        index = BruteForceIndex().build(clusterable_data)
        counts = index.batch_range_count(clusterable_data, eps)
        claimed_core = np.flatnonzero(block.core_mask)
        assert (counts[claimed_core] >= tau).all()


class TestApproximateMode:
    def test_low_checks_still_runs(self, clusterable_data):
        result = KNNBlockDBSCAN(
            eps=0.5, tau=5, checks_ratio=0.05, branching=4, seed=0
        ).fit(clusterable_data)
        assert result.labels.shape == (clusterable_data.shape[0],)

    def test_quality_improves_with_checks(self):
        X, y = make_blobs_on_sphere(50, 4, 24, spread=0.35, seed=5)
        exact = DBSCAN(eps=0.5, tau=5).fit(X)
        scores = []
        for ratio in (0.02, 1.0):
            block = KNNBlockDBSCAN(
                eps=0.5, tau=5, checks_ratio=ratio, branching=4, seed=0
            ).fit(X)
            scores.append(adjusted_rand_index(exact.labels, block.labels))
        assert scores[1] >= scores[0]

    def test_fewer_knn_queries_than_points(self, blob_data):
        """Blocks dismiss whole groups: far fewer queries than points."""
        X, _ = blob_data
        result = KNNBlockDBSCAN(eps=0.5, tau=4, checks_ratio=1.0, seed=0).fit(X)
        assert result.stats["knn_queries"] < X.shape[0]

    def test_stats_present(self, clusterable_data):
        result = KNNBlockDBSCAN(eps=0.5, tau=5, seed=0).fit(clusterable_data)
        assert {"knn_queries", "n_core", "n_blocks"} <= set(result.stats)

    def test_deterministic_given_seed(self, clusterable_data):
        a = KNNBlockDBSCAN(eps=0.5, tau=5, seed=7).fit(clusterable_data)
        b = KNNBlockDBSCAN(eps=0.5, tau=5, seed=7).fit(clusterable_data)
        assert np.array_equal(a.labels, b.labels)

    def test_refit_same_instance_is_repeatable(self):
        # Every fit rebuilds its k-means tree from the stored seed, so a
        # second fit of one instance cannot see a consumed generator.
        X, _ = make_blobs_on_sphere(50, 6, 32, spread=0.9, seed=2)
        noise = normalize_rows(np.random.default_rng(2).normal(size=(100, 32)))
        X = np.vstack([X, noise])
        model = KNNBlockDBSCAN(eps=0.6, tau=4, checks_ratio=0.05, seed=0)
        first = model.fit(X)
        second = model.fit(X)
        assert np.array_equal(first.core_mask, second.core_mask)
        assert np.array_equal(first.labels, second.labels)
