"""Tests for original DBSCAN against an independent reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import DBSCAN
from repro.distances import normalize_rows
from repro.engine_config import ExecutionConfig, IndexSpec
from repro.exceptions import DataValidationError
from repro.index import BruteForceIndex
from repro.metrics import adjusted_rand_index

from repro.testing import canonical, reference_dbscan


class TestAgainstReference:
    @pytest.mark.parametrize("eps,tau", [(0.3, 3), (0.5, 3), (0.55, 5), (0.8, 8)])
    def test_matches_reference_on_blobs(self, clusterable_data, eps, tau):
        ours = DBSCAN(eps=eps, tau=tau).fit(clusterable_data)
        ref = reference_dbscan(clusterable_data, eps, tau)
        # Cluster structure must agree exactly (ARI = 1 handles label
        # permutation; border ties can differ, so compare via ARI).
        assert adjusted_rand_index(canonical(ref), ours.labels) > 0.99

    def test_core_points_match_definition(self, clusterable_data):
        eps, tau = 0.5, 4
        result = DBSCAN(eps=eps, tau=tau).fit(clusterable_data)
        index = BruteForceIndex().build(clusterable_data)
        counts = index.batch_range_count(clusterable_data, eps)
        assert np.array_equal(result.core_mask, counts >= tau)

    @given(st.integers(0, 300))
    @settings(max_examples=15, deadline=None)
    def test_property_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        X = normalize_rows(rng.normal(size=(50, 8)))
        ours = DBSCAN(eps=0.6, tau=4).fit(X)
        ref = reference_dbscan(X, 0.6, 4)
        assert adjusted_rand_index(canonical(ref), ours.labels) > 0.99


class TestInvariants:
    def test_every_cluster_contains_a_core_point(self, clusterable_data):
        result = DBSCAN(eps=0.5, tau=5).fit(clusterable_data)
        for cluster_id in range(result.n_clusters):
            members = result.cluster_members(cluster_id)
            assert result.core_mask[members].any()

    def test_core_points_never_noise(self, clusterable_data):
        result = DBSCAN(eps=0.5, tau=5).fit(clusterable_data)
        assert (result.labels[result.core_mask] != -1).all()

    def test_noise_has_no_core_neighbor(self, clusterable_data):
        eps, tau = 0.5, 5
        result = DBSCAN(eps=eps, tau=tau).fit(clusterable_data)
        index = BruteForceIndex().build(clusterable_data)
        for p in np.flatnonzero(result.labels == -1):
            neighbors = index.range_query(clusterable_data[p], eps)
            assert not result.core_mask[neighbors].any()

    def test_labels_are_canonical(self, clusterable_data):
        result = DBSCAN(eps=0.5, tau=5).fit(clusterable_data)
        non_noise = result.labels[result.labels != -1]
        if non_noise.size:
            assert set(np.unique(non_noise)) == set(range(result.n_clusters))

    def test_one_range_query_per_point(self, clusterable_data):
        result = DBSCAN(eps=0.5, tau=5).fit(clusterable_data)
        assert result.stats["range_queries"] == clusterable_data.shape[0]

    def test_cluster_connectivity_through_core_points(self, blob_data):
        """Any two same-cluster points connect via a core-point path."""
        X, _ = blob_data
        eps, tau = 0.5, 4
        result = DBSCAN(eps=eps, tau=tau).fit(X)
        index = BruteForceIndex().build(X)
        for cluster_id in range(result.n_clusters):
            members = result.cluster_members(cluster_id)
            # BFS over core points from the first core member.
            cores = [m for m in members if result.core_mask[m]]
            seen = {cores[0]}
            queue = [cores[0]]
            while queue:
                p = queue.pop()
                for q in index.range_query(X[p], eps):
                    if q in seen or result.labels[q] != cluster_id:
                        continue
                    seen.add(int(q))
                    if result.core_mask[q]:
                        queue.append(int(q))
            assert seen == set(members.tolist())


class TestBehaviour:
    def test_recovers_generative_blobs(self, blob_data):
        X, y = blob_data
        result = DBSCAN(eps=0.5, tau=4).fit(X)
        assert result.n_clusters == 3
        assert adjusted_rand_index(y, result.labels) > 0.95

    def test_tau_one_no_noise(self, unit_vectors_small):
        # With tau=1 every point is core (it neighbors itself).
        result = DBSCAN(eps=0.3, tau=1).fit(unit_vectors_small)
        assert result.noise_ratio == 0.0

    def test_tiny_eps_all_noise_at_high_tau(self, unit_vectors_small):
        result = DBSCAN(eps=1e-6, tau=2).fit(unit_vectors_small)
        assert result.noise_ratio == 1.0

    def test_eps_large_single_cluster(self, unit_vectors_small):
        result = DBSCAN(eps=2.0, tau=3).fit(unit_vectors_small)
        assert result.n_clusters == 1
        assert result.noise_ratio == 0.0

    def test_grid_index_gives_same_result(self, clusterable_data):
        brute = DBSCAN(eps=0.5, tau=5).fit(clusterable_data)
        grid = DBSCAN(
            eps=0.5,
            tau=5,
            execution=ExecutionConfig(index=IndexSpec("grid", {"eps": 0.5})),
        ).fit(clusterable_data)
        assert np.array_equal(brute.labels, grid.labels)

    def test_rejects_unnormalized(self):
        with pytest.raises(DataValidationError):
            DBSCAN(eps=0.5, tau=3).fit(np.ones((10, 4)))

    def test_deterministic(self, clusterable_data):
        a = DBSCAN(eps=0.5, tau=5).fit(clusterable_data)
        b = DBSCAN(eps=0.5, tau=5).fit(clusterable_data)
        assert np.array_equal(a.labels, b.labels)
