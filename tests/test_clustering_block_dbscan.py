"""Tests for BLOCK-DBSCAN."""

import numpy as np
import pytest

from repro.clustering import DBSCAN, BlockDBSCAN
from repro.exceptions import InvalidParameterError
from repro.index import BruteForceIndex
from repro.metrics import adjusted_rand_index


class TestParameters:
    def test_invalid_rnt(self):
        with pytest.raises(InvalidParameterError):
            BlockDBSCAN(eps=0.5, tau=3, rnt=0)

    def test_invalid_base_propagates(self):
        with pytest.raises(InvalidParameterError):
            BlockDBSCAN(eps=0.5, tau=3, base=1.0).fit(np.eye(3))


class TestCorrectness:
    def test_blobs_match_dbscan(self, blob_data):
        X, _ = blob_data
        eps, tau = 0.5, 4
        exact = DBSCAN(eps=eps, tau=tau).fit(X)
        block = BlockDBSCAN(eps=eps, tau=tau).fit(X)
        assert adjusted_rand_index(exact.labels, block.labels) > 0.95

    def test_clusterable_close_to_dbscan(self, clusterable_data):
        eps, tau = 0.5, 5
        exact = DBSCAN(eps=eps, tau=tau).fit(clusterable_data)
        block = BlockDBSCAN(eps=eps, tau=tau).fit(clusterable_data)
        assert adjusted_rand_index(exact.labels, block.labels) > 0.9

    def test_core_claims_are_sound(self, clusterable_data):
        eps, tau = 0.5, 5
        block = BlockDBSCAN(eps=eps, tau=tau).fit(clusterable_data)
        index = BruteForceIndex().build(clusterable_data)
        counts = index.batch_range_count(clusterable_data, eps)
        claimed = np.flatnonzero(block.core_mask)
        assert (counts[claimed] >= tau).all()

    @pytest.mark.parametrize("base", [1.3, 2.0, 4.0])
    def test_base_sweep_all_correct_on_blobs(self, blob_data, base):
        X, _ = blob_data
        exact = DBSCAN(eps=0.5, tau=4).fit(X)
        block = BlockDBSCAN(eps=0.5, tau=4, base=base).fit(X)
        assert adjusted_rand_index(exact.labels, block.labels) > 0.9


class TestBlocks:
    def test_fewer_range_queries_than_two_per_point(self, blob_data):
        X, _ = blob_data
        result = BlockDBSCAN(eps=0.5, tau=4).fit(X)
        # Each point costs at most one half-radius query (plus full
        # queries for sparse points); dense data needs far fewer.
        assert result.stats["range_queries"] < X.shape[0]

    def test_block_stats_present(self, clusterable_data):
        result = BlockDBSCAN(eps=0.5, tau=5).fit(clusterable_data)
        assert {"range_queries", "n_core", "n_blocks"} <= set(result.stats)

    def test_rnt_one_may_miss_merges_but_runs(self, clusterable_data):
        result = BlockDBSCAN(eps=0.5, tau=5, rnt=1).fit(clusterable_data)
        assert result.labels.shape == (clusterable_data.shape[0],)

    def test_deterministic(self, clusterable_data):
        a = BlockDBSCAN(eps=0.5, tau=5).fit(clusterable_data)
        b = BlockDBSCAN(eps=0.5, tau=5).fit(clusterable_data)
        assert np.array_equal(a.labels, b.labels)

    def test_singleton_blocks_from_sparse_regions(self, clusterable_data):
        result = BlockDBSCAN(eps=0.3, tau=3).fit(clusterable_data)
        # With a small radius some points are individually resolved.
        assert result.stats["n_blocks"] >= result.n_clusters
