"""Differential tests: sharded backends vs the single-index path.

The contract of :class:`repro.index.sharded.ShardedIndex` is that
sharding is *invisible*: in both metrics and under every executor,
`batch_range_query` / `batch_range_count` return exactly what
one index over the whole dataset returns (range rows compared as sorted
arrays — the sharded backend's documented order).
Edge cases the merge layer must survive: ``eps = 0`` (strict ``d < eps``
means even the query's duplicate is excluded), an eps covering the
whole sphere, query points outside the dataset, duplicated points,
``n_shards > n_points`` (empty shards), and empty query batches.

Everything here is deterministic: fixed seeds, no time dependence, no
reliance on test order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import DBSCAN
from repro.distances import normalize_rows
from repro.engine_config import ExecutionConfig
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.index import (
    BruteForceIndex,
    NeighborIndex,
    ShardedIndex,
    ShardingConfig,
)
from repro.index import sharded as sharded_mod
from repro.index.sharded import resolve_engine_index
from repro.remote.pool import WorkerPool
from repro.testing import make_blobs_on_sphere

EPS = 0.55

#: Largest valid eps: every distance on the unit sphere is below it
#: unless the pair is exactly antipodal.
WHOLE_SPHERE_EPS = 2.0

#: Every registered executor; "remote" runs against a local two-worker
#: pool (see the ``executor`` fixture).
EXECUTORS = ("serial", "remote")

#: Shard metrics: the float32 cosine kernel and the float64 Euclidean one.
METRICS = ("cosine", "euclidean")

#: (metric, extra ShardedIndex kwargs) per configuration that takes a
#: different path through the merge: both metrics, more shards than
#: the default, query blocks that split every batch into rounds, and
#: rounds that each fan out over many shards.
SHARD_CONFIGS = {
    "cosine": ("cosine", {}),
    "cosine_many_shards": ("cosine", {"n_shards": 7}),
    "cosine_small_query_block": ("cosine", {"query_block": 5}),
    "cosine_many_shards_small_query_block": (
        "cosine",
        {"n_shards": 7, "query_block": 5},
    ),
    "euclidean": ("euclidean", {}),
    "euclidean_many_shards": ("euclidean", {"n_shards": 7}),
    "euclidean_small_query_block": ("euclidean", {"query_block": 5}),
}


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    X, _ = make_blobs_on_sphere(20, 3, 10, spread=0.2, seed=7)
    return X


@pytest.fixture(scope="module")
def pool():
    with WorkerPool.spawn_local(2) as pool:
        yield pool


@pytest.fixture
def executor(request, pool):
    """The executor under test: a registered name, or the pool's spec.

    Naming ``pool`` as a parameter puts the module's workers up before
    any per-test resource snapshot, so they are not counted as leaks.
    """
    if request.param == "remote":
        return pool.executor_spec()
    return request.param


@pytest.fixture(scope="module")
def external(data) -> np.ndarray:
    # Jittered copies of dataset rows: near the blobs, none in ``data``.
    rng = np.random.default_rng(11)
    return normalize_rows(data[:12] + 0.05 * rng.normal(size=(12, data.shape[1])))


@pytest.fixture(scope="module")
def duplicated(data) -> np.ndarray:
    # Every point appears three times; neighborhoods must list them all.
    return np.repeat(data[:12], 3, axis=0)


def sharded(metric, X, executor, n_shards=3, **extra) -> ShardedIndex:
    index = ShardedIndex(metric=metric, n_shards=n_shards, executor=executor, **extra)
    return index.build(X)


def assert_rows_equal(got_rows, expected_rows) -> None:
    assert len(got_rows) == len(expected_rows)
    for i, (got, expected) in enumerate(zip(got_rows, expected_rows)):
        assert got.dtype == np.int64, i
        assert np.array_equal(got, np.sort(np.asarray(expected))), i


@pytest.mark.parametrize("executor", EXECUTORS, indirect=True)
@pytest.mark.parametrize(
    "metric,extra", list(SHARD_CONFIGS.values()), ids=list(SHARD_CONFIGS)
)
class TestAgainstSingleIndex:
    def test_batch_range_query(self, metric, extra, executor, data):
        single = BruteForceIndex(metric=metric).build(data)
        with sharded(metric, data, executor, **extra) as index:
            got = index.batch_range_query(data, EPS)
        assert_rows_equal(got, single.batch_range_query(data, EPS))

    def test_batch_range_count(self, metric, extra, executor, data):
        single = BruteForceIndex(metric=metric).build(data)
        expected = [len(r) for r in single.batch_range_query(data, EPS)]
        with sharded(metric, data, executor, **extra) as index:
            counts = index.batch_range_count(data, EPS)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, expected)

    def test_empty_query_batch(self, metric, extra, executor, data):
        with sharded(metric, data, executor, **extra) as index:
            assert index.batch_range_query(np.empty((0, data.shape[1])), EPS) == []
            assert index.batch_range_count(np.empty((0, data.shape[1])), EPS).size == 0

    def test_eps_zero_returns_no_neighbors(self, metric, extra, executor, data):
        # Strict d < 0 excludes everything, the query point included.
        with sharded(metric, data, executor, **extra) as index:
            rows = index.batch_range_query(data[:6], 0.0)
            assert all(row.size == 0 for row in rows)
            assert np.array_equal(
                index.batch_range_count(data[:6], 0.0), np.zeros(6, dtype=np.int64)
            )

    def test_external_queries(self, metric, extra, executor, data, external):
        # Query points outside the dataset: no self-match to lean on, and
        # the hits of one row can fall in every shard.
        single = BruteForceIndex(metric=metric).build(data)
        expected = single.batch_range_query(external, EPS)
        assert any(len(row) > 0 for row in expected)
        with sharded(metric, data, executor, **extra) as index:
            assert_rows_equal(index.batch_range_query(external, EPS), expected)
            assert np.array_equal(
                index.batch_range_count(external, EPS), [len(r) for r in expected]
            )

    def test_eps_covering_every_point(self, metric, extra, executor, data):
        # Every shard contributes its whole slice to every row.
        everything = np.arange(data.shape[0], dtype=np.int64)
        with sharded(metric, data, executor, **extra) as index:
            rows = index.batch_range_query(data[:5], WHOLE_SPHERE_EPS)
            counts = index.batch_range_count(data[:5], WHOLE_SPHERE_EPS)
        assert all(np.array_equal(row, everything) for row in rows)
        assert np.array_equal(counts, np.full(5, data.shape[0], dtype=np.int64))


@pytest.mark.parametrize("executor", EXECUTORS, indirect=True)
@pytest.mark.parametrize("metric", METRICS)
class TestShardingEdgeCases:
    def test_duplicated_points(self, metric, executor, duplicated):
        single = BruteForceIndex(metric=metric).build(duplicated)
        with sharded(metric, duplicated, executor, n_shards=5) as index:
            got = index.batch_range_query(duplicated, EPS)
            counts = index.batch_range_count(duplicated, EPS)
        expected = single.batch_range_query(duplicated, EPS)
        assert_rows_equal(got, expected)
        assert np.array_equal(counts, [len(r) for r in expected])

    def test_empty_dataset(self, metric, executor, data):
        empty = np.empty((0, data.shape[1]))
        with sharded(metric, empty, executor, n_shards=4) as index:
            assert index.n_live_shards == 0
            rows = index.batch_range_query(data[:3], EPS)
            assert [r.size for r in rows] == [0, 0, 0]
            assert np.array_equal(
                index.batch_range_count(data[:3], EPS), np.zeros(3, dtype=np.int64)
            )

    def test_more_shards_than_points(self, metric, executor, data):
        X = data[:7]
        single = BruteForceIndex(metric=metric).build(X)
        with sharded(metric, X, executor, n_shards=32) as index:
            assert index.n_live_shards == 7
            assert_rows_equal(
                index.batch_range_query(X, EPS), single.batch_range_query(X, EPS)
            )

    def test_single_shard_is_the_single_index(self, metric, executor, data):
        single = BruteForceIndex(metric=metric).build(data)
        with sharded(metric, data, executor, n_shards=1) as index:
            assert_rows_equal(
                index.batch_range_query(data, EPS),
                single.batch_range_query(data, EPS),
            )

    def test_tiny_query_block_still_exact(self, metric, executor, data):
        single = BruteForceIndex(metric=metric).build(data)
        with sharded(metric, data, executor, n_shards=3, query_block=7) as index:
            assert_rows_equal(
                index.batch_range_query(data, EPS),
                single.batch_range_query(data, EPS),
            )


def test_index_contract_is_range_only():
    """KNN is not part of the index contract, the sharding layer or the wire."""
    assert not hasattr(NeighborIndex, "batch_knn_query")
    assert not hasattr(ShardedIndex, "batch_knn_query")
    assert "merge_knn_rows" not in sharded_mod.__all__
    assert set(sharded_mod._SHARD_OPS) == {"range", "count"}


class TestLifecycleAndValidation:
    def test_unbuilt_raises(self, data):
        with pytest.raises(NotFittedError):
            ShardedIndex().batch_range_query(data, EPS)

    def test_closed_raises_and_close_is_idempotent(self, data):
        index = ShardedIndex(n_shards=2).build(data)
        index.close()
        index.close()
        with pytest.raises(NotFittedError):
            index.batch_range_query(data, EPS)

    def test_rebuild_after_close(self, data):
        index = ShardedIndex(n_shards=2).build(data)
        index.close()
        index.build(data[:10])
        assert index.n_points == 10
        assert len(index.batch_range_query(data[:4], EPS)) == 4

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            ShardedIndex(n_shards=0)
        with pytest.raises(InvalidParameterError):
            ShardedIndex(executor="mapreduce")
        with pytest.raises(InvalidParameterError):
            ShardedIndex(metric="manhattan")
        with pytest.raises(InvalidParameterError):
            ShardedIndex(query_block=0)
        with pytest.raises(TypeError, match="n_workers"):
            ShardedIndex(n_workers=2)

    @pytest.mark.parametrize(
        "field,value",
        [("n_shards", 2.5), ("n_shards", True), ("query_block", "8")],
    )
    def test_field_types_are_checked_like_sharding_config(self, field, value):
        with pytest.raises(InvalidParameterError, match=field):
            ShardedIndex(**{field: value})


class TestEngineWiring:
    """Sharding reaches the clusterers through the ``_engine`` seam alone."""

    def test_engine_shards_under_config(self, data):
        reference = BruteForceIndex().build(data)
        execution = ExecutionConfig(sharding=ShardingConfig(n_shards=3))
        with DBSCAN(eps=EPS, tau=4, execution=execution)._engine(data) as index:
            assert isinstance(index, ShardedIndex)
            rows = index.batch_range_query_rows(np.arange(10), EPS)
        for p, row in enumerate(rows):
            assert np.array_equal(row, reference.range_query(data[p], EPS))

    def test_engine_without_config_builds_one_brute_force_index(self, data):
        clusterer = DBSCAN(
            eps=EPS, tau=4, metric="euclidean", execution=ExecutionConfig(query_block=7)
        )
        with clusterer._engine(data) as index:
            assert type(index) is BruteForceIndex
            assert index.metric.name == "euclidean"
            assert index.n_points == data.shape[0]
            # query_block is the unsharded kernel block.
            assert index.block_size == 7
            assert index.stats() == {}

    def test_engine_exit_releases_its_sharded_index(self, data):
        execution = ExecutionConfig(sharding=ShardingConfig(n_shards=2))
        with DBSCAN(eps=EPS, tau=4, execution=execution)._engine(data) as index:
            assert index.batch_range_query_rows(np.array([0]), EPS)[0].size > 0
        # close() ran on exit: the sharded index is released.
        with pytest.raises(NotFittedError):
            index.batch_range_query(data[:1], EPS)

    @pytest.mark.parametrize("executor", EXECUTORS, indirect=True)
    def test_dbscan_identical_under_sharding(self, executor, data):
        baseline = DBSCAN(eps=0.5, tau=4).fit(data)
        result = DBSCAN(
            eps=0.5,
            tau=4,
            execution=ExecutionConfig(
                sharding=ShardingConfig(n_shards=4, executor=executor)
            ),
        ).fit(data)
        assert np.array_equal(baseline.labels, result.labels)
        assert np.array_equal(baseline.core_mask, result.core_mask)
        assert baseline.stats["range_queries"] == result.stats["range_queries"]

    @pytest.mark.parametrize("metric", METRICS)
    def test_resolve_engine_index_builds_shards_directly(self, metric, data):
        resolved = resolve_engine_index(data, metric, ShardingConfig(n_shards=3))
        with resolved:
            assert isinstance(resolved, ShardedIndex)
            assert resolved.metric.name == metric
            assert resolved.n_live_shards == 3
            stats = resolved.stats()
            # Shard-before-build: exactly one build per live shard, no
            # discarded whole-dataset build.
            assert stats["shard_inner_builds"] == stats["shard_live_shards"] == 3

    @pytest.mark.parametrize("metric", METRICS)
    def test_resolve_engine_index_without_config_builds_single(self, metric, data):
        resolved = resolve_engine_index(data, metric)
        assert type(resolved) is BruteForceIndex
        assert resolved.metric.name == metric
        assert np.array_equal(resolved.points, data)

    @pytest.mark.parametrize("metric", METRICS)
    def test_public_points_property_on_every_metric(self, metric, data):
        """Persistence keys on the public ``points`` accessor, not ``_points``."""
        index = BruteForceIndex(metric=metric)
        assert index.n_points == 0
        with pytest.raises(NotFittedError):
            _ = index.points
        index.build(data)
        assert index.points.shape == data.shape
        assert np.array_equal(index.points, data)
        assert index.n_points == data.shape[0]
