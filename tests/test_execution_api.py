"""Tests for the registry facade and the removal of the legacy kwargs.

Two contracts:

* ``make_clusterer`` / ``repro.cluster`` build every registered
  algorithm by name and thread one ``ExecutionConfig`` through it;
* the removed legacy spellings (``index_factory=``, ``batch_queries=``
  on clusterers and on ``ExecutionConfig``, ``sharded_queries(...)``,
  ``set_sharding(...)``, ``sharding=False``) are gone: plain
  ``TypeError``s, missing names, or a validation error.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro import ExecutionConfig, ShardingConfig, cluster, make_clusterer
from repro.clustering import (
    DBSCAN,
    BlockDBSCAN,
    DBSCANPlusPlus,
    KNNBlockDBSCAN,
    RhoApproxDBSCAN,
)
from repro.core import LAFDBSCAN, LAFDBSCANPlusPlus
from repro.estimators import ExactCardinalityEstimator
from repro.exceptions import InvalidParameterError
from repro.index import BruteForceIndex
from repro.remote.pool import WorkerPool

EPS = 0.5
TAU = 4


@pytest.fixture(scope="module")
def pool():
    with WorkerPool.spawn_local(2) as pool:
        yield pool


def _deprecation_count(record) -> int:
    return sum(issubclass(w.category, DeprecationWarning) for w in record)


class TestMakeClusterer:
    @pytest.mark.parametrize(
        "name,cls,params",
        [
            ("dbscan", DBSCAN, {}),
            ("dbscan++", DBSCANPlusPlus, {"p": 0.5, "seed": 0}),
            ("knn-block", KNNBlockDBSCAN, {"seed": 0}),
            ("block-dbscan", BlockDBSCAN, {}),
            ("rho-approx", RhoApproxDBSCAN, {"rho": 1.0}),
            ("laf-dbscan", LAFDBSCAN, {"estimator": ExactCardinalityEstimator()}),
            (
                "laf-dbscan++",
                LAFDBSCANPlusPlus,
                {"estimator": ExactCardinalityEstimator(), "p": 0.5},
            ),
        ],
    )
    def test_builds_every_registered_clusterer(self, name, cls, params):
        clusterer = make_clusterer(name, eps=EPS, tau=TAU, **params)
        assert isinstance(clusterer, cls)

    def test_names_are_case_insensitive(self):
        assert isinstance(
            make_clusterer("DBSCAN++", eps=EPS, tau=TAU, p=0.5), DBSCANPlusPlus
        )

    def test_aliases_resolve(self):
        assert isinstance(
            make_clusterer("dbscanpp", eps=EPS, tau=TAU, p=0.5), DBSCANPlusPlus
        )

    def test_unknown_name_raises(self):
        with pytest.raises(InvalidParameterError, match="unknown clusterer"):
            make_clusterer("optics", eps=EPS, tau=TAU)

    def test_execution_threads_through(self):
        cfg = ExecutionConfig(query_block=7)
        clusterer = make_clusterer("dbscan", eps=EPS, tau=TAU, execution=cfg)
        assert clusterer.execution is cfg

    def test_clusterer_names_lists_the_registry(self):
        assert "dbscan" in repro.clusterer_names()
        assert "laf-dbscan++" in repro.clusterer_names()


class TestClusterFacade:
    def test_one_call_matches_direct_fit(self, clusterable_data):
        direct = DBSCAN(eps=EPS, tau=TAU).fit(clusterable_data)
        result = cluster(clusterable_data, algo="dbscan", eps=EPS, tau=TAU)
        assert np.array_equal(direct.labels, result.labels)

    def test_execution_reaches_the_fit(self, clusterable_data):
        result = cluster(
            clusterable_data,
            algo="dbscan",
            eps=EPS,
            tau=TAU,
            execution=ExecutionConfig(sharding=ShardingConfig(n_shards=3)),
        )
        assert result.stats["shard_live_shards"] == 3
        assert result.stats["shard_inner_builds"] == 3

    def test_laf_method_with_estimator(self, clusterable_data):
        result = cluster(
            clusterable_data,
            algo="laf-dbscan",
            eps=EPS,
            tau=TAU,
            estimator=ExactCardinalityEstimator(),
        )
        baseline = DBSCAN(eps=EPS, tau=TAU).fit(clusterable_data)
        assert np.array_equal(result.labels, baseline.labels)


class TestEngineRoutedSharding:
    """Every engine-routed clusterer honors ExecutionConfig.sharding."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda e: DBSCAN(eps=EPS, tau=TAU, execution=e),
            lambda e: DBSCANPlusPlus(eps=EPS, tau=TAU, p=0.5, seed=0, execution=e),
            lambda e: BlockDBSCAN(eps=EPS, tau=TAU, execution=e),
            lambda e: RhoApproxDBSCAN(eps=EPS, tau=TAU, rho=1.0, execution=e),
            # Non-core points left, so the border queries run sharded.
            lambda e: RhoApproxDBSCAN(eps=0.8, tau=8, rho=0.01, execution=e),
            lambda e: LAFDBSCAN(
                eps=EPS,
                tau=TAU,
                estimator=ExactCardinalityEstimator(),
                seed=0,
                execution=e,
            ),
            lambda e: LAFDBSCANPlusPlus(
                eps=EPS,
                tau=TAU,
                estimator=ExactCardinalityEstimator(),
                p=0.5,
                seed=0,
                execution=e,
            ),
        ],
        ids=["dbscan", "dbscan++", "block", "rho", "rho_borders", "laf", "laf++"],
    )
    @pytest.mark.parametrize("executor", ["serial", "remote"])
    def test_sharded_fit_matches_default(
        self, factory, executor, clusterable_data, pool
    ):
        if executor == "remote":
            executor = pool.executor_spec()
        baseline = factory(None).fit(clusterable_data)
        sharding = ShardingConfig(n_shards=3, executor=executor)
        sharded = factory(ExecutionConfig(sharding=sharding)).fit(clusterable_data)
        assert np.array_equal(baseline.labels, sharded.labels)
        assert np.array_equal(baseline.core_mask, sharded.core_mask)
        assert sharded.stats["shard_live_shards"] == 3


class TestRemovedLegacyAPI:
    """The pre-ExecutionConfig spellings are gone, not shimmed.

    Passing a removed constructor kwarg is an ordinary ``TypeError``;
    the ambient sharding entry points no longer exist; ``sharding`` is
    a ``ShardingConfig`` or None.
    """

    def test_index_factory_kwarg_is_gone(self):
        with pytest.raises(TypeError, match="index_factory"):
            DBSCAN(eps=EPS, tau=TAU, index_factory=lambda: BruteForceIndex())

    @pytest.mark.parametrize(
        "factory",
        [
            lambda **kw: DBSCAN(eps=EPS, tau=TAU, **kw),
            lambda **kw: DBSCANPlusPlus(eps=EPS, tau=TAU, p=0.5, seed=0, **kw),
            lambda **kw: BlockDBSCAN(eps=EPS, tau=TAU, **kw),
            lambda **kw: RhoApproxDBSCAN(eps=EPS, tau=TAU, rho=1.0, **kw),
            lambda **kw: LAFDBSCAN(
                eps=EPS, tau=TAU, estimator=ExactCardinalityEstimator(), seed=0, **kw
            ),
            lambda **kw: LAFDBSCANPlusPlus(
                eps=EPS,
                tau=TAU,
                estimator=ExactCardinalityEstimator(),
                p=0.5,
                seed=0,
                **kw,
            ),
        ],
        ids=["dbscan", "dbscan++", "block", "rho", "laf", "laf++"],
    )
    def test_batch_queries_kwarg_raises_on_every_clusterer(self, factory):
        with pytest.raises(TypeError, match="batch_queries"):
            factory(batch_queries=False)

    def test_modern_construction_does_not_warn(self):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            DBSCAN(eps=EPS, tau=TAU, execution=ExecutionConfig(query_block=7))
        assert _deprecation_count(record) == 0

    def test_ambient_sharding_entry_points_are_gone(self):
        import repro.index
        import repro.index.sharded

        for name in ("set_sharding", "sharded_queries", "sharding_config"):
            assert not hasattr(repro.index, name)
            assert not hasattr(repro.index.sharded, name)

    def test_sharding_false_is_rejected(self):
        with pytest.raises(InvalidParameterError, match="ShardingConfig or None"):
            ExecutionConfig(sharding=False)


class TestExecutionResolution:
    def test_euclidean_metric_threads_into_sharded_brute_force(self):
        """Shards are built in the clusterer's metric, never cosine by default."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(120, 6))
        default = DBSCAN(eps=0.8, tau=3, metric="euclidean").fit(X)
        sharded = DBSCAN(
            eps=0.8,
            tau=3,
            metric="euclidean",
            execution=ExecutionConfig(sharding=ShardingConfig(n_shards=3)),
        ).fit(X)
        assert np.array_equal(default.labels, sharded.labels)
        assert np.array_equal(default.core_mask, sharded.core_mask)
        assert sharded.stats["shard_live_shards"] == 3

    def test_ground_truth_threads_sharding(self, clusterable_data):
        from repro.experiments.runner import ground_truth

        exact = ground_truth(clusterable_data, EPS, TAU)
        sharded = ground_truth(
            clusterable_data,
            EPS,
            TAU,
            execution=ExecutionConfig(sharding=ShardingConfig(n_shards=2)),
        )
        assert np.array_equal(exact.labels, sharded.labels)
        assert sharded.stats["shard_live_shards"] == 2

    def test_per_point_switch_is_gone(self):
        # Every fit runs on the batched engine; the per-point reference
        # lives in repro.testing, not in the execution policy.
        with pytest.raises(TypeError, match="batch_queries"):
            ExecutionConfig(batch_queries=False)

    def test_engine_block_default_matches_index_default(self):
        from repro.engine_config import DEFAULT_ENGINE_BLOCK

        assert DEFAULT_ENGINE_BLOCK == BruteForceIndex().block_size
