"""Differential tests: sharded backends vs the single-index path.

The contract of :class:`repro.index.sharded.ShardedIndex` is that
sharding is *invisible*: for every exact inner backend and every
executor, `batch_range_query` / `batch_range_count` return exactly what
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

import warnings

import numpy as np
import pytest

from repro.clustering import DBSCAN
from repro.distances import normalize_rows
from repro.engine_config import ExecutionConfig
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.index import (
    BruteForceIndex,
    NeighborhoodCache,
    NeighborIndex,
    ShardedIndex,
    ShardingConfig,
)
from repro.index import sharded as sharded_mod
from repro.index.sharded import (
    backend_spec_of,
    make_inner_backend,
    resolve_engine_index,
)
from repro.remote.pool import WorkerPool
from repro.testing import make_blobs_on_sphere

EPS = 0.55

#: Largest valid eps: every distance on the unit sphere is below it
#: unless the pair is exactly antipodal.
WHOLE_SPHERE_EPS = 2.0

#: Every registered executor; "remote" runs against a local two-worker
#: pool (see the ``executor`` fixture).
EXECUTORS = ("serial", "thread", "remote")

#: (name, constructor kwargs) for every registered inner backend, plus
#: the configurations that take a different path through it: brute-force
#: blocks smaller than a shard, the float64 Euclidean kernel, and the
#: grid's rho < 1 cell pruning.
BACKENDS = [
    ("brute_force", {}),
    ("brute_force", {"block_size": 7}),
    ("brute_force", {"metric": "euclidean"}),
    ("grid", {"eps": EPS, "rho": 1.0}),
    ("grid", {"eps": EPS, "rho": 0.5}),
]

backend_ids = [
    "brute_force",
    "brute_force_small_blocks",
    "brute_force_euclidean",
    "grid",
    "grid_approx",
]


class Unregistered(NeighborIndex):
    """A range index outside the backend registry: it has no rebuild spec."""

    def __init__(self) -> None:
        self._inner = BruteForceIndex()

    def build(self, X):
        self._points = self._inner.build(X).points
        return self

    def range_query(self, q, eps):
        return self._inner.range_query(q, eps)

    def range_count(self, q, eps):
        return self._inner.range_count(q, eps)

    def batch_range_query(self, Q, eps):
        return self._inner.batch_range_query(Q, eps)

    def batch_range_count(self, Q, eps):
        return self._inner.batch_range_count(Q, eps)


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


def sharded(name, kwargs, X, executor, n_shards=3, **extra) -> ShardedIndex:
    index = ShardedIndex(
        inner=name,
        inner_kwargs=kwargs,
        n_shards=n_shards,
        executor=executor,
        n_workers=2 if executor != "serial" else None,
        **extra,
    )
    return index.build(X)


def assert_rows_equal(got_rows, expected_rows) -> None:
    assert len(got_rows) == len(expected_rows)
    for i, (got, expected) in enumerate(zip(got_rows, expected_rows)):
        assert got.dtype == np.int64, i
        assert np.array_equal(got, np.sort(np.asarray(expected))), i


@pytest.mark.parametrize("executor", EXECUTORS, indirect=True)
@pytest.mark.parametrize("name,kwargs", BACKENDS, ids=backend_ids)
class TestAgainstSingleIndex:
    def test_batch_range_query(self, name, kwargs, executor, data):
        single = make_inner_backend(name, kwargs).build(data)
        with sharded(name, kwargs, data, executor) as index:
            got = index.batch_range_query(data, EPS)
        assert_rows_equal(got, single.batch_range_query(data, EPS))

    def test_batch_range_count(self, name, kwargs, executor, data):
        single = make_inner_backend(name, kwargs).build(data)
        expected = [len(r) for r in single.batch_range_query(data, EPS)]
        with sharded(name, kwargs, data, executor) as index:
            counts = index.batch_range_count(data, EPS)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, expected)

    def test_empty_query_batch(self, name, kwargs, executor, data):
        with sharded(name, kwargs, data, executor) as index:
            assert index.batch_range_query(np.empty((0, data.shape[1])), EPS) == []
            assert index.batch_range_count(np.empty((0, data.shape[1])), EPS).size == 0

    def test_eps_zero_returns_no_neighbors(self, name, kwargs, executor, data):
        # Strict d < 0 excludes everything, the query point included.
        with sharded(name, kwargs, data, executor) as index:
            rows = index.batch_range_query(data[:6], 0.0)
            assert all(row.size == 0 for row in rows)
            assert np.array_equal(
                index.batch_range_count(data[:6], 0.0), np.zeros(6, dtype=np.int64)
            )

    def test_external_queries(self, name, kwargs, executor, data, external):
        # Query points outside the dataset: no self-match to lean on, and
        # the hits of one row can fall in every shard.
        single = make_inner_backend(name, kwargs).build(data)
        expected = single.batch_range_query(external, EPS)
        assert any(len(row) > 0 for row in expected)
        with sharded(name, kwargs, data, executor) as index:
            assert_rows_equal(index.batch_range_query(external, EPS), expected)
            assert np.array_equal(
                index.batch_range_count(external, EPS), [len(r) for r in expected]
            )

    def test_eps_covering_every_point(self, name, kwargs, executor, data):
        # Every shard contributes its whole slice to every row.
        everything = np.arange(data.shape[0], dtype=np.int64)
        with sharded(name, kwargs, data, executor) as index:
            rows = index.batch_range_query(data[:5], WHOLE_SPHERE_EPS)
            counts = index.batch_range_count(data[:5], WHOLE_SPHERE_EPS)
        assert all(np.array_equal(row, everything) for row in rows)
        assert np.array_equal(counts, np.full(5, data.shape[0], dtype=np.int64))


@pytest.mark.parametrize("executor", EXECUTORS, indirect=True)
class TestShardingEdgeCases:
    def test_duplicated_points(self, executor, duplicated):
        single = BruteForceIndex().build(duplicated)
        with sharded("brute_force", {}, duplicated, executor, n_shards=5) as index:
            got = index.batch_range_query(duplicated, EPS)
            counts = index.batch_range_count(duplicated, EPS)
        expected = single.batch_range_query(duplicated, EPS)
        assert_rows_equal(got, expected)
        assert np.array_equal(counts, [len(r) for r in expected])

    def test_empty_dataset(self, executor, data):
        with sharded(
            "brute_force", {}, np.empty((0, data.shape[1])), executor, n_shards=4
        ) as index:
            assert index.n_live_shards == 0
            rows = index.batch_range_query(data[:3], EPS)
            assert [r.size for r in rows] == [0, 0, 0]
            assert np.array_equal(
                index.batch_range_count(data[:3], EPS), np.zeros(3, dtype=np.int64)
            )

    def test_more_shards_than_points(self, executor, data):
        X = data[:7]
        single = BruteForceIndex().build(X)
        with sharded("brute_force", {}, X, executor, n_shards=32) as index:
            assert index.n_live_shards == 7
            assert_rows_equal(
                index.batch_range_query(X, EPS), single.batch_range_query(X, EPS)
            )

    def test_single_shard_is_the_single_index(self, executor, data):
        single = BruteForceIndex().build(data)
        with sharded("brute_force", {}, data, executor, n_shards=1) as index:
            assert_rows_equal(
                index.batch_range_query(data, EPS),
                single.batch_range_query(data, EPS),
            )

    def test_tiny_query_block_still_exact(self, executor, data):
        single = BruteForceIndex().build(data)
        with sharded(
            "brute_force", {}, data, executor, n_shards=3, query_block=7
        ) as index:
            assert_rows_equal(
                index.batch_range_query(data, EPS),
                single.batch_range_query(data, EPS),
            )

    def test_scalar_queries_route_through_shards(self, executor, data):
        single = BruteForceIndex().build(data)
        with sharded("brute_force", {}, data, executor) as index:
            assert np.array_equal(
                index.range_query(data[0], EPS),
                np.sort(single.range_query(data[0], EPS)),
            )
            assert index.range_count(data[3], EPS) == single.range_count(data[3], EPS)


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
            ShardedIndex(inner="flann")
        with pytest.raises(InvalidParameterError):
            ShardedIndex(n_workers=0)
        with pytest.raises(InvalidParameterError):
            ShardedIndex(query_block=0)

    def test_inner_takes_registered_names_only(self):
        with pytest.raises(InvalidParameterError, match="unknown inner backend"):
            ShardedIndex(inner=BruteForceIndex)


class TestEngineWiring:
    """Sharding reaches the clusterers through NeighborhoodCache alone."""

    def test_cache_wraps_index_under_config(self, data):
        index = BruteForceIndex().build(data)
        cache = NeighborhoodCache(index, data, EPS, sharding=ShardingConfig(n_shards=3))
        assert isinstance(cache._index, ShardedIndex)
        for p in range(10):
            assert np.array_equal(
                cache.fetch(p), np.sort(index.range_query(data[p], EPS))
            )

    def test_cache_without_config_keeps_index(self, data):
        index = BruteForceIndex().build(data)
        assert NeighborhoodCache(index, data, EPS)._index is index

    def test_cache_close_releases_owned_sharded_index(self, data):
        index = BruteForceIndex().build(data)
        with NeighborhoodCache(
            index, data, EPS, sharding=ShardingConfig(n_shards=2, executor="thread")
        ) as cache:
            cache.plan([0, 1])
            assert cache.fetch(0).size > 0
        # close() ran on __exit__: the owned sharded wrapper is released.
        with pytest.raises(NotFittedError):
            cache._index.batch_range_query(data[:1], EPS)
        # But a cache that borrowed the caller's index must not close it.
        borrowed = NeighborhoodCache(index, data, EPS)
        borrowed.close()
        assert index.range_count(data[0], EPS) > 0

    @pytest.mark.parametrize("executor", EXECUTORS, indirect=True)
    def test_dbscan_identical_under_sharding(self, executor, data):
        baseline = DBSCAN(eps=0.5, tau=4).fit(data)
        result = DBSCAN(
            eps=0.5,
            tau=4,
            execution=ExecutionConfig(
                sharding=ShardingConfig(n_shards=4, executor=executor, n_workers=2)
            ),
        ).fit(data)
        assert np.array_equal(baseline.labels, result.labels)
        assert np.array_equal(baseline.core_mask, result.core_mask)
        assert baseline.stats["range_queries"] == result.stats["range_queries"]

    def test_resolve_engine_index_passthrough(self, data):
        custom = Unregistered().build(data)
        config = ShardingConfig(n_shards=2)
        # No rebuild spec: used unsharded, never silently.
        with pytest.warns(RuntimeWarning, match="rebuild spec"):
            assert resolve_engine_index(custom, data, config) == (custom, False)
        already = ShardedIndex(n_shards=2).build(data)
        assert resolve_engine_index(already, data, config) == (already, False)
        already.close()

    def test_resolve_engine_index_builds_shards_directly(self, data):
        resolved, owned = resolve_engine_index(
            BruteForceIndex(), data, ShardingConfig(n_shards=3)
        )
        assert owned
        assert isinstance(resolved, ShardedIndex)
        assert resolved.n_live_shards == 3
        stats = resolved.stats()
        # Shard-before-build: exactly one build per live shard, no
        # discarded whole-dataset build.
        assert stats["shard_inner_builds"] == stats["shard_live_shards"] == 3
        resolved.close()

    def test_resolve_engine_index_without_config_builds_single(self, data):
        unbuilt = BruteForceIndex()
        resolved, owned = resolve_engine_index(unbuilt, data, None)
        assert resolved is unbuilt and owned
        assert resolved.is_built
        assert resolved.n_points == data.shape[0]

    def test_resolve_engine_index_fitted_takes_fallback(self, data):
        fitted = BruteForceIndex().build(data)
        resolved, owned = resolve_engine_index(fitted, data, None)
        assert resolved is fitted and not owned
        wrapped, owned = resolve_engine_index(fitted, data, ShardingConfig(n_shards=2))
        assert isinstance(wrapped, ShardedIndex) and owned
        wrapped.close()

    def test_resolve_engine_index_shards_fitted_index_without_points(self, data):
        # Shard copies are re-fit over the caller's rows, so a fitted
        # index that no longer exposes its points still shards.
        class NoPoints(BruteForceIndex):
            @property
            def points(self):
                return None

        fitted = NoPoints().build(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolved, owned = resolve_engine_index(
                fitted, data, ShardingConfig(n_shards=2)
            )
        with resolved:
            assert isinstance(resolved, ShardedIndex) and owned
            assert_rows_equal(
                resolved.batch_range_query(data, EPS),
                fitted.batch_range_query(data, EPS),
            )

    def test_resolve_engine_index_warns_on_unbuilt_specless_index(self, data):
        # No rebuild spec, so the index is built once over X and
        # queried unsharded.
        custom = Unregistered()
        with pytest.warns(RuntimeWarning, match="rebuild spec"):
            resolved, owned = resolve_engine_index(
                custom, data, ShardingConfig(n_shards=2)
            )
        assert resolved is custom and resolved.is_built and owned

    @pytest.mark.parametrize("name,kwargs", BACKENDS, ids=backend_ids)
    def test_public_points_property_on_every_backend(self, name, kwargs, data):
        """Persistence keys on the public ``points`` accessor, not ``_points``."""
        index = make_inner_backend(name, kwargs)
        assert index.is_built is False
        with pytest.raises(NotFittedError):
            _ = index.points
        index.build(data)
        assert index.is_built is True
        assert index.points.shape == data.shape
        assert np.array_equal(index.points, data)
        assert index.n_points == data.shape[0]

    def test_backend_spec_roundtrip(self, data):
        for name, kwargs in BACKENDS:
            index = make_inner_backend(name, kwargs)
            spec = backend_spec_of(index)
            assert spec is not None
            got_name, got_kwargs = spec
            assert got_name == name
            rebuilt = make_inner_backend(got_name, got_kwargs)
            assert type(rebuilt) is type(index)

    def test_unregistered_index_has_no_spec(self):
        assert backend_spec_of(Unregistered()) is None
