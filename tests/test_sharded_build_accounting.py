"""Build-once accounting: each live shard's inner index builds exactly once.

The cost contract of the sharded execution path (and the regression this
suite pins): a sharded fit pays exactly ``n_live_shards`` inner-index
constructions —

* no discarded whole-dataset build (shard-before-build: the engine is
  handed the *unbuilt* backend and constructs the per-shard indexes
  directly), and
* no rebuilds across query rounds (each shard's index is built once
  and reused for every query block of the fit).

The differential tests below count actual ``build`` calls in this
process (monkeypatched class methods) and read the instrumented
``shard_inner_builds`` counter of :meth:`ShardedIndex.stats`, across all
three executors and all four registered inner backends; label equality
vs the unsharded path rides along for DBSCAN and LAF-DBSCAN. Each remote
case gets a fresh local worker pool, so its shards start cold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import DBSCAN
from repro.core import LAFDBSCAN
from repro.engine_config import ExecutionConfig, IndexSpec
from repro.estimators import ExactCardinalityEstimator
from repro.index import ShardedIndex
from repro.index.sharded import INNER_BACKENDS, ExecutorSpec, ShardingConfig
from repro.remote.pool import WorkerPool
from repro.testing import make_blobs_on_sphere

EPS = 0.5
TAU = 4
N_SHARDS = 3
EXECUTORS = ("serial", "thread", "remote")

#: Inner-backend grid mirroring tests/test_sharded_equivalence.py (the
#: k-means tree in exact mode: approx pruning is shard-shape-dependent).
BACKENDS = [
    ("brute_force", {}),
    ("cover_tree", {"base": 1.6}),
    ("kmeans_tree", {"checks_ratio": 1.0, "seed": 0, "leaf_size": 8}),
    ("grid", {"eps": EPS, "rho": 1.0}),
]
backend_ids = [n for n, _ in BACKENDS]

#: IndexSpec equivalents for routing clusterers onto each backend.
SPECS = {name: IndexSpec(name, kwargs) for name, kwargs in BACKENDS}


def sharded_execution(executor, index: IndexSpec | None = None) -> ExecutionConfig:
    """The first-class equivalent of the old ambient sharded_queries scope."""
    return ExecutionConfig(
        index=index,
        sharding=ShardingConfig(n_shards=N_SHARDS, executor=executor, n_workers=2),
    )


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    X, _ = make_blobs_on_sphere(20, 3, 10, spread=0.25, seed=11)
    return X


@pytest.fixture
def executor(request):
    """The executor under test: a registered name, or a cold pool's spec."""
    if request.param != "remote":
        yield request.param
        return
    with WorkerPool.spawn_local(2) as pool:
        yield pool.executor_spec()


def local_builds(executor) -> int:
    """Inner builds a sharded fit runs in this process: remote workers
    build their shards out of process, the other executors in it."""
    return 0 if isinstance(executor, ExecutorSpec) else N_SHARDS


@pytest.fixture
def build_counter(monkeypatch):
    """Count inner-backend ``build`` calls executed in this process."""
    counts = {"n": 0}
    for cls in set(INNER_BACKENDS.values()):
        original = cls.build

        def counting_build(self, X, _original=original):
            counts["n"] += 1
            return _original(self, X)

        monkeypatch.setattr(cls, "build", counting_build)
    return counts


@pytest.mark.parametrize("executor", EXECUTORS, indirect=True)
@pytest.mark.parametrize("name,kwargs", BACKENDS, ids=backend_ids)
class TestShardedIndexBuildOnce:
    def test_builds_equal_live_shards_across_query_rounds(
        self, name, kwargs, executor, data
    ):
        with ShardedIndex(
            inner=name,
            inner_kwargs=kwargs,
            n_shards=N_SHARDS,
            executor=executor,
            n_workers=2,
        ).build(data) as index:
            # Several rounds over every shard: pre-affinity, round 2+
            # could land a shard on a worker that had never built it.
            for _ in range(3):
                index.batch_range_query(data, EPS)
                index.batch_range_count(data, EPS)
            stats = index.stats()
            assert stats["shard_live_shards"] == N_SHARDS
            assert stats["shard_inner_builds"] == N_SHARDS
            assert stats["shard_rebalances"] == 0

    def test_stats_survive_close(self, name, kwargs, executor, data):
        index = ShardedIndex(
            inner=name,
            inner_kwargs=kwargs,
            n_shards=N_SHARDS,
            executor=executor,
            n_workers=2,
        ).build(data)
        index.batch_range_query(data[:5], EPS)
        index.close()
        stats = index.stats()
        assert stats["shard_inner_builds"] == N_SHARDS
        assert stats["shard_live_shards"] == N_SHARDS


@pytest.mark.parametrize("executor", ["remote"], indirect=True)
def test_unqueried_remote_index_reports_zero_builds(executor, data):
    # Lazy contract: no queries -> no worker builds, and close() must
    # not attach never-queried shards just to hear "0 builds".
    index = ShardedIndex(n_shards=N_SHARDS, executor=executor).build(data)
    assert index.stats()["shard_inner_builds"] == 0
    index.close()
    assert index.stats()["shard_inner_builds"] == 0


@pytest.mark.parametrize("executor", EXECUTORS, indirect=True)
@pytest.mark.parametrize("name,kwargs", BACKENDS, ids=backend_ids)
class TestClustererFitBuildOnce:
    def test_dbscan_fit_builds_each_shard_once(
        self, name, kwargs, executor, data, build_counter
    ):
        baseline = DBSCAN(
            eps=EPS, tau=TAU, execution=ExecutionConfig(index=SPECS[name])
        ).fit(data)
        parent_builds_before = build_counter["n"]
        result = DBSCAN(
            eps=EPS, tau=TAU, execution=sharded_execution(executor, SPECS[name])
        ).fit(data)
        parent_builds = build_counter["n"] - parent_builds_before
        # Shard-before-build: the whole-dataset index is never built,
        # only one inner index per live shard.
        assert parent_builds == local_builds(executor)
        assert result.stats["shard_live_shards"] == N_SHARDS
        assert result.stats["shard_inner_builds"] == N_SHARDS
        assert result.stats["shard_rebalances"] == 0
        # Sharding stays invisible: bit-identical clustering.
        assert np.array_equal(result.labels, baseline.labels)
        assert np.array_equal(result.core_mask, baseline.core_mask)


@pytest.mark.parametrize("executor", EXECUTORS, indirect=True)
class TestLafDbscanBuildOnce:
    def test_laf_fit_builds_each_shard_once_and_matches(
        self, executor, data, build_counter
    ):
        def make(execution=None):
            return LAFDBSCAN(
                eps=EPS,
                tau=TAU,
                estimator=ExactCardinalityEstimator(),
                alpha=1.0,
                execution=execution,
            )

        baseline = make().fit(data)
        parent_builds_before = build_counter["n"]
        result = make(sharded_execution(executor)).fit(data)
        parent_builds = build_counter["n"] - parent_builds_before
        # The oracle estimator builds one BruteForceIndex of its own in
        # bind() — estimator machinery, not the range-query engine; the
        # engine itself contributes its shards' local builds.
        assert parent_builds == local_builds(executor) + 1
        assert result.stats["shard_inner_builds"] == N_SHARDS
        assert np.array_equal(result.labels, baseline.labels)
        assert result.stats["range_queries"] == baseline.stats["range_queries"]
        assert result.stats["skipped_queries"] == baseline.stats["skipped_queries"]
