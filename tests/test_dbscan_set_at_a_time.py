"""Set-at-a-time DBSCAN against the sequential frontier oracle.

``DBSCAN.fit`` finds each pair within ``eps`` once, on the upper
triangle, and labels the points set at a time: counts, then the core
mask, then the components of the core-core graph, then the borders.
The oracle here is sequential DBSCAN as the paper states it (Algorithm
1 without the LAF lines): a frontier loop over the points in index
order that reads one neighbourhood per point. Its neighbourhoods come
from one scalar float64 query per point, so nothing batched is shared
with the path under test. Labels and core masks must agree bit for
bit, with each other and with the independent
:func:`repro.testing.reference_dbscan`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import DBSCAN
from repro.distances import normalize_rows
from repro.distances.matrix import iter_distance_blocks
from repro.engine_config import ExecutionConfig
from repro.index import BruteForceIndex, ShardingConfig

from repro.testing import canonical, reference_dbscan

NOISE = -1
UNDEFINED = -2


def frontier_dbscan(X, eps, tau, metric="cosine"):
    """Sequential DBSCAN: ``(labels, core_mask)``, labels canonical.

    Visits the points in index order and expands a cluster from each
    unlabelled core point through a FIFO queue before it visits the
    next point; a noise point reached by an expansion becomes a border.
    """
    index = BruteForceIndex(metric=metric).build(X)
    neighborhoods = [index.range_query(x, eps) for x in X]
    n = len(neighborhoods)
    labels = np.full(n, UNDEFINED, dtype=np.int64)
    core_mask = np.zeros(n, dtype=bool)
    enqueued = np.zeros(n, dtype=bool)
    cluster_id = -1
    for p in range(n):
        if labels[p] != UNDEFINED:
            continue
        neighbors = neighborhoods[p]
        if neighbors.size < tau:
            labels[p] = NOISE
            continue
        cluster_id += 1
        labels[p] = cluster_id
        core_mask[p] = True
        # The growing seed set S = N - {P}.
        queue = neighbors[neighbors != p].tolist()
        enqueued[neighbors] = True
        head = 0
        while head < len(queue):
            q = queue[head]
            head += 1
            if labels[q] == NOISE:
                labels[q] = cluster_id  # noise reclaimed as border
            if labels[q] != UNDEFINED:
                continue
            labels[q] = cluster_id
            q_neighbors = neighborhoods[q]
            if q_neighbors.size >= tau:
                core_mask[q] = True
                fresh = q_neighbors[~enqueued[q_neighbors]]
                enqueued[fresh] = True
                queue.extend(fresh.tolist())
    return canonical(labels), core_mask


def assert_matches_oracle(X, eps, tau, metric="cosine", execution=None):
    result = DBSCAN(eps=eps, tau=tau, metric=metric, execution=execution).fit(X)
    labels, core_mask = frontier_dbscan(X, eps, tau, metric)
    assert np.array_equal(result.labels, labels)
    assert np.array_equal(result.core_mask, core_mask)
    if metric == "cosine":
        assert np.array_equal(labels, canonical(reference_dbscan(X, eps, tau)))
    return result


def sphere_data(seed, n, dim, n_centers, spread):
    """Points around a few random centres on the unit sphere."""
    rng = np.random.default_rng(seed)
    centers = normalize_rows(rng.normal(size=(n_centers, dim)))
    X = centers[rng.integers(0, n_centers, size=n)]
    return normalize_rows(X + spread * rng.normal(size=(n, dim)))


class TestOracleDifferential:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 70),
        dim=st.sampled_from([2, 3, 8, 32]),
        n_centers=st.integers(1, 5),
        spread=st.sampled_from([0.05, 0.2, 0.5, 1.0]),
        eps=st.sampled_from([0.05, 0.2, 0.4, 0.7, 1.2]),
        tau=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_sphere_data(self, seed, n, dim, n_centers, spread, eps, tau):
        X = sphere_data(seed, n, dim, n_centers, spread)
        assert_matches_oracle(X, eps, tau)

    @given(seed=st.integers(0, 10_000), query_block=st.integers(1, 9))
    @settings(max_examples=15, deadline=None)
    def test_small_kernel_blocks(self, seed, query_block):
        X = sphere_data(seed, 40, 8, 3, 0.3)
        execution = ExecutionConfig(query_block=query_block)
        assert_matches_oracle(X, 0.3, 4, execution=execution)

    def test_blobs_plus_noise(self, clusterable_data):
        result = assert_matches_oracle(clusterable_data, 0.5, 5)
        assert result.n_clusters == 3
        assert result.stats["range_queries"] == clusterable_data.shape[0]

    def test_border_goes_to_the_first_created_cluster(self):
        # Two clusters on a great circle, each with one core; the last
        # point is a border of both, nearer the second-created one, and
        # joins the first: that expansion reaches it first.
        angles = np.array([0.30, 0.36, 0.42, -0.12, -0.06, 0.0, 0.145])
        X = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        result = assert_matches_oracle(X, 1.0 - np.cos(0.16), 4)
        assert result.labels.tolist() == [0, 0, 0, 1, 1, 1, 0]
        assert result.core_mask.tolist() == [1, 0, 0, 0, 0, 1, 0]


class TestEdgeCases:
    def test_duplicate_rows(self):
        X = sphere_data(3, 30, 8, 3, 0.4)
        X = np.vstack([X, X[::-1], X[:5]])
        result = assert_matches_oracle(X, 0.3, 3)
        # A duplicated point counts its copies as neighbours.
        assert result.core_mask[:5].all()

    def test_tau_one_makes_every_point_core(self, unit_vectors_small):
        result = assert_matches_oracle(unit_vectors_small, 0.3, 1)
        assert result.core_mask.all()
        assert (result.labels != NOISE).all()

    def test_tau_above_n_is_all_noise(self, unit_vectors_small):
        n = unit_vectors_small.shape[0]
        result = assert_matches_oracle(unit_vectors_small, 2.0, n + 1)
        assert not result.core_mask.any()
        assert (result.labels == NOISE).all()

    def test_all_noise_data(self):
        # Orthogonal rows: every pair is at distance 1.
        result = assert_matches_oracle(np.eye(12), 0.5, 2)
        assert (result.labels == NOISE).all()
        assert result.stats["neighbor_pairs"] == 0

    def test_single_point(self):
        result = assert_matches_oracle(np.array([[0.6, 0.8]]), 0.5, 1)
        assert result.labels.tolist() == [0]

    @pytest.mark.parametrize("eps,tau", [(0.5, 3), (1.5, 4), (3.0, 6)])
    def test_euclidean_metric(self, eps, tau):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(80, 5)) + 4.0 * rng.integers(0, 3, size=(80, 1))
        assert_matches_oracle(X, eps, tau, metric="euclidean")

    def test_self_membership_follows_the_kernel(self):
        # Far from the origin the Euclidean kernel's rounded d(P, P) can
        # reach a small eps. A point is then not in its own range query,
        # and DBSCAN counts it as that query does (as LAF-DBSCAN does).
        X = np.random.default_rng(0).normal(size=(60, 64)) * 1e4
        _, _, D = next(iter_distance_blocks(X, X, metric="euclidean"))
        eps = max(np.diag(D).max() / 2, 1e-9)
        index = BruteForceIndex(metric="euclidean").build(X)
        rows = index.batch_range_query_rows(np.arange(len(X)), eps)
        in_own_query = np.array([i in row for i, row in enumerate(rows)])
        result = DBSCAN(eps=eps, tau=1, metric="euclidean").fit(X)
        assert np.array_equal(result.core_mask, in_own_query)
        assert np.array_equal(result.labels >= 0, in_own_query)

    def test_neighbor_pairs_counts_each_pair_once(self, clusterable_data):
        result = DBSCAN(eps=0.5, tau=5).fit(clusterable_data)
        index = BruteForceIndex().build(clusterable_data)
        counts = index.batch_range_count(clusterable_data, 0.5)
        n = clusterable_data.shape[0]
        assert result.stats["neighbor_pairs"] == (counts.sum() - n) // 2


@pytest.mark.parametrize("metric", ["cosine", "euclidean"])
@pytest.mark.parametrize("n_shards", [1, 3, 4])
def test_remote_shards_match_oracle(metric, n_shards, worker_pool, clusterable_data):
    execution = ExecutionConfig(
        sharding=ShardingConfig(n_shards=n_shards, executor=worker_pool.executor_spec())
    )
    result = assert_matches_oracle(
        clusterable_data, 0.5, 5, metric=metric, execution=execution
    )
    assert result.stats["shard_live_shards"] == n_shards
    assert result.stats["range_queries"] == clusterable_data.shape[0]
