"""Tests for DBSCAN++."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import DBSCAN, DBSCANPlusPlus
from repro.clustering.base import canonicalize_labels
from repro.clustering.components import connected_components_within
from repro.core import LAFDBSCANPlusPlus
from repro.distances import normalize_rows
from repro.engine_config import ExecutionConfig
from repro.estimators import ExactCardinalityEstimator
from repro.exceptions import InvalidParameterError
from repro.index import BruteForceIndex, ShardingConfig
from repro.index.base import pair_counts
from repro.metrics import adjusted_rand_index

from repro.testing import make_blobs_on_sphere


class TestParameters:
    def test_invalid_p(self):
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(InvalidParameterError):
                DBSCANPlusPlus(eps=0.5, tau=3, p=bad)

    def test_invalid_init(self):
        with pytest.raises(InvalidParameterError):
            DBSCANPlusPlus(eps=0.5, tau=3, init="random-walk")


class TestFullSampleEquivalence:
    """With p = 1 the sample is the dataset: core set equals DBSCAN's."""

    def test_core_mask_matches_dbscan(self, clusterable_data):
        eps, tau = 0.5, 5
        full = DBSCANPlusPlus(eps=eps, tau=tau, p=1.0, seed=0).fit(clusterable_data)
        exact = DBSCAN(eps=eps, tau=tau).fit(clusterable_data)
        assert np.array_equal(full.core_mask, exact.core_mask)

    def test_clustering_close_to_dbscan(self, clusterable_data):
        eps, tau = 0.5, 5
        full = DBSCANPlusPlus(eps=eps, tau=tau, p=1.0, seed=0).fit(clusterable_data)
        exact = DBSCAN(eps=eps, tau=tau).fit(clusterable_data)
        # Same core graph; only border tie-breaks may differ.
        assert adjusted_rand_index(exact.labels, full.labels) > 0.95


class TestSampling:
    def test_sample_size_respected(self, clusterable_data):
        result = DBSCANPlusPlus(eps=0.5, tau=5, p=0.25, seed=0).fit(clusterable_data)
        expected = round(0.25 * clusterable_data.shape[0])
        assert result.stats["sample_size"] == expected
        assert result.stats["range_queries"] == expected

    def test_core_points_only_from_sample(self, clusterable_data):
        result = DBSCANPlusPlus(eps=0.5, tau=5, p=0.2, seed=1).fit(clusterable_data)
        assert result.stats["n_core"] <= result.stats["sample_size"]

    def test_seed_controls_sampling(self, clusterable_data):
        a = DBSCANPlusPlus(eps=0.5, tau=5, p=0.3, seed=1).fit(clusterable_data)
        b = DBSCANPlusPlus(eps=0.5, tau=5, p=0.3, seed=1).fit(clusterable_data)
        c = DBSCANPlusPlus(eps=0.5, tau=5, p=0.3, seed=2).fit(clusterable_data)
        assert np.array_equal(a.labels, b.labels)
        assert a.stats == b.stats
        # Different seed gives a different sample (may rarely coincide).
        assert not np.array_equal(a.labels, c.labels) or a.stats != c.stats

    def test_k_center_init_spreads_samples(self):
        X, _ = make_blobs_on_sphere(50, 3, 16, spread=0.1, seed=0)
        result = DBSCANPlusPlus(eps=0.5, tau=4, p=0.1, init="k-center", seed=0).fit(X)
        # Farthest-first traversal hits every blob: all clusters found.
        assert result.n_clusters == 3


def _k_center_without_exclusion(X, m, seed):
    """Farthest-first traversal that lets argmax see chosen rows again."""
    rng = np.random.default_rng(seed)
    chosen = [int(rng.integers(X.shape[0]))]
    min_dists = 1.0 - X @ X[chosen[0]]
    for _ in range(1, m):
        chosen.append(int(np.argmax(min_dists)))
        np.minimum(min_dists, 1.0 - X @ X[chosen[-1]], out=min_dists)
    return np.sort(chosen)


class TestKCenterSampling:
    def test_repeated_rows_are_not_chosen_twice(self):
        # 3 distinct points repeated 5 times: the traversal used to pick
        # one row 12 times out of 14.
        X = np.repeat(normalize_rows(np.random.default_rng(0).normal(size=(3, 8))), 5, 0)
        clusterer = DBSCANPlusPlus(eps=0.5, tau=2, p=0.9, init="k-center", seed=0)
        m = round(0.9 * X.shape[0])
        sample = clusterer._sample_indices(X)
        assert sample.size == m
        assert np.unique(sample).size == m
        assert np.unique(_k_center_without_exclusion(X, m, 0)).size < m
        result = DBSCANPlusPlus(eps=0.5, tau=2, p=0.9, init="k-center", seed=0).fit(X)
        assert result.stats["sample_size"] == result.stats["range_queries"] == m

    def test_distinct_rows_sample_unchanged(self, clusterable_data):
        for seed in range(3):
            clusterer = DBSCANPlusPlus(eps=0.5, tau=5, p=0.3, init="k-center", seed=seed)
            m = round(0.3 * clusterable_data.shape[0])
            assert np.array_equal(
                clusterer._sample_indices(clusterable_data),
                _k_center_without_exclusion(clusterable_data, m, seed),
            )


class TestJoinCounts:
    """The core test counts each sampled row's neighbours from one
    ``range_pairs`` join over the sample: the counts are the sampled
    rows' own ``batch_range_count``, whatever the kernel block (sharded:
    also the fan-out round), the init or where the shards run."""

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 60),
        n_duplicates=st.integers(0, 12),
        p=st.floats(0.05, 1.0),
        tau=st.integers(1, 8),
        init=st.sampled_from(["uniform", "k-center"]),
        query_block=st.sampled_from([1, 7, 1024]),
        sharded=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_join_counts_equal_batch_range_count(
        self, worker_pool, seed, n, n_duplicates, p, tau, init, query_block, sharded
    ):
        rng = np.random.default_rng(seed)
        X = normalize_rows(rng.normal(size=(n, 6)))
        X = np.vstack([X, X[rng.integers(n, size=n_duplicates)]])
        eps = 0.6
        sharding = (
            ShardingConfig(
                n_shards=3,
                executor=worker_pool.executor_spec(),
                query_block=query_block,
            )
            if sharded
            else None
        )
        clusterer = DBSCANPlusPlus(
            eps=eps,
            tau=tau,
            p=p,
            init=init,
            seed=seed,
            execution=ExecutionConfig(sharding=sharding, query_block=query_block),
        )
        sample = clusterer._sample_indices(X)
        expected = BruteForceIndex().build(X).batch_range_count(X[sample], eps)
        with clusterer._engine(X) as index:
            pairs = index.range_pairs(eps, rows=sample)
        assert np.array_equal(pair_counts(pairs, len(X))[sample], expected)
        core_mask = np.zeros(len(X), dtype=bool)
        core_mask[sample[expected >= tau]] = True
        result = clusterer.fit(X)
        assert np.array_equal(result.core_mask, core_mask)
        assert result.stats["n_core"] == np.count_nonzero(core_mask)


class TestCoreGraphStats:
    def test_core_graph_reported(self, clusterable_data):
        result = DBSCANPlusPlus(eps=0.5, tau=5, p=0.5, seed=0).fit(clusterable_data)
        # The fit reads its core graph off its sample join; a self-join
        # over its cores is the independent answer.
        core_X = clusterable_data[result.core_mask]
        core_pairs = BruteForceIndex().build(core_X).range_pairs(0.5)
        labels, n_pairs = connected_components_within(
            core_pairs, np.arange(len(core_X))
        )
        assert result.stats["core_graph_pairs"] == n_pairs > 0
        assert result.stats["n_core_components"] == labels.max() + 1
        assert result.stats["n_core_components"] == result.n_clusters

    def test_no_core_points(self, unit_vectors_small):
        result = DBSCANPlusPlus(eps=0.01, tau=5, p=0.5, seed=0).fit(unit_vectors_small)
        assert result.stats["core_graph_pairs"] == 0
        assert result.stats["n_core_components"] == 0


def _bfs_core_graph(C, eps):
    """Component per row of ``C`` by a float64 BFS, one matvec per node,
    numbered by lowest row, and the number of pairs ``i < j`` within eps."""
    within = 1.0 - C @ C.T < eps
    labels = np.full(len(C), -1, dtype=np.int64)
    for start in range(len(C)):
        if labels[start] == -1:
            labels[start] = labels.max() + 1
            frontier = [start]
            while frontier:
                reached = np.flatnonzero(within[frontier.pop()] & (labels == -1))
                labels[reached] = labels[start]
                frontier.extend(reached.tolist())
    return labels, int(np.count_nonzero(np.triu(within, k=1)))


class TestCoreGraphOracle:
    """DBSCAN++ and LAF-DBSCAN++ read their core graph off their sample
    join: it equals a float64 BFS over the fit's cores, with duplicated
    rows, unsharded and on remote shards."""

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 60),
        n_duplicates=st.integers(0, 12),
        p=st.floats(0.05, 1.0),
        tau=st.integers(1, 8),
        method=st.sampled_from(["uniform", "k-center", "laf"]),
        sharded=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_core_graph_equals_bfs_over_the_cores(
        self, worker_pool, seed, n, n_duplicates, p, tau, method, sharded
    ):
        rng = np.random.default_rng(seed)
        X = normalize_rows(rng.normal(size=(n, 6)))
        X = np.vstack([X, X[rng.integers(n, size=n_duplicates)]])
        eps = 0.6
        sharding = (
            ShardingConfig(n_shards=3, executor=worker_pool.executor_spec())
            if sharded
            else None
        )
        execution = ExecutionConfig(sharding=sharding)
        if method == "laf":
            clusterer = LAFDBSCANPlusPlus(
                eps=eps,
                tau=tau,
                estimator=ExactCardinalityEstimator(),
                p=p,
                seed=seed,
                execution=execution,
            )
        else:
            clusterer = DBSCANPlusPlus(
                eps=eps, tau=tau, p=p, init=method, seed=seed, execution=execution
            )
        result = clusterer.fit(X)
        cores = np.flatnonzero(result.core_mask)
        want, want_pairs = _bfs_core_graph(X[cores], eps)
        assert result.stats["core_graph_pairs"] == want_pairs
        assert result.stats["n_core_components"] == len(set(want.tolist()))
        # Exact gate at alpha 1: no false negative, so no merge.
        assert result.stats.get("merges", 0) == 0
        assert np.array_equal(canonicalize_labels(result.labels[cores]), want)


class TestQualityOnBlobs:
    def test_recovers_blobs_with_moderate_sample(self, blob_data):
        X, y = blob_data
        result = DBSCANPlusPlus(eps=0.5, tau=4, p=0.4, seed=3).fit(X)
        assert adjusted_rand_index(y, result.labels) > 0.9

    def test_assign_within_eps_false_absorbs_everything(self, clusterable_data):
        strict = DBSCANPlusPlus(
            eps=0.5, tau=5, p=0.5, assign_within_eps=True, seed=0
        ).fit(clusterable_data)
        absorb = DBSCANPlusPlus(
            eps=0.5, tau=5, p=0.5, assign_within_eps=False, seed=0
        ).fit(clusterable_data)
        if strict.stats["n_core"] > 0:
            assert absorb.noise_ratio == 0.0
            assert absorb.noise_ratio <= strict.noise_ratio

    def test_no_core_points_all_noise(self, unit_vectors_small):
        result = DBSCANPlusPlus(eps=0.01, tau=5, p=0.5, seed=0).fit(unit_vectors_small)
        assert result.noise_ratio == 1.0
        assert result.n_clusters == 0
