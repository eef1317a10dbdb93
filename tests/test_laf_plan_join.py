"""LAF's plan query as one join, against the full-row plan query.

LAF-DBSCAN and LAF-DBSCAN++ read each planned row's neighbourhood from
:func:`repro.core.laf.plan_neighborhoods`: one
``range_pairs(eps, rows=plan)`` join that computes a pair of two planned
rows once. The oracle here keeps the full-row plan query,
``batch_range_query_rows(plan)``, one neighbourhood per planned row.
Labels, core masks, ``fn_detected``, ``merges``, the skipped and
executed query counts and the map ``E`` (registration order and
partial-neighbour sets) must agree bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.laf_dbscan
import repro.core.laf_dbscanpp
from repro.core import LAFDBSCAN, LAFDBSCANPlusPlus
from repro.core.laf import plan_neighborhoods
from repro.distances import normalize_rows
from repro.engine_config import ExecutionConfig
from repro.estimators import ExactCardinalityEstimator, SamplingCardinalityEstimator
from repro.index import BruteForceIndex, ShardingConfig
from repro.testing import make_blobs_on_sphere

STATS = ("fn_detected", "merges", "skipped_queries", "range_queries")


def full_row_plan(index, plan, eps):
    """The plan query the join replaced: every planned row's full row."""
    return index.batch_range_query_rows(plan, eps)


def make(cls, X, eps, tau, alpha, seed, exact=True, p=0.5, execution=None):
    """A fresh LAF clusterer; ``exact`` False gives it a noisy estimator
    (a 20-point sample of ``X``), whose misses E and post-processing
    repair."""
    kwargs = {"p": p} if cls is LAFDBSCANPlusPlus else {}
    estimator = (
        ExactCardinalityEstimator()
        if exact
        else SamplingCardinalityEstimator(sample_size=20, seed=seed).fit(X)
    )
    return cls(
        eps=eps,
        tau=tau,
        estimator=estimator,
        alpha=alpha,
        seed=seed,
        execution=execution,
        **kwargs,
    )


def outcome(clusterer, X):
    """Everything a LAF fit leaves that the plan query could move."""
    result = clusterer.fit(X)
    E = clusterer.laf.partial_neighbors
    return {
        "labels": result.labels,
        "core_mask": result.core_mask,
        **{stat: result.stats[stat] for stat in STATS},
        "E": list(E.items()),  # registration order and sets
    }


def assert_same(got, want):
    assert got.keys() == want.keys()
    for key in want:
        if isinstance(want[key], np.ndarray):
            assert np.array_equal(got[key], want[key]), key
        else:
            assert got[key] == want[key], key


def oracle(build, X):
    """``build()``'s fit with the full-row plan query."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (repro.core.laf_dbscan, repro.core.laf_dbscanpp):
            patch.setattr(module, "plan_neighborhoods", full_row_plan)
        return outcome(build(), X)


def sphere_data(seed, n, dim, n_centers, spread, n_copies=0):
    """Points around a few random centres on the unit sphere, the first
    ``n_copies`` of them repeated at the end."""
    rng = np.random.default_rng(seed)
    centers = normalize_rows(rng.normal(size=(n_centers, dim)))
    X = centers[rng.integers(0, n_centers, size=n)]
    X = normalize_rows(X + spread * rng.normal(size=(n, dim)))
    return np.vstack([X, X[:n_copies]])


@pytest.mark.parametrize("cls", [LAFDBSCAN, LAFDBSCANPlusPlus])
class TestAgainstFullRowPlan:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 70),
        dim=st.sampled_from([3, 8, 32]),
        n_centers=st.integers(1, 5),
        spread=st.sampled_from([0.05, 0.2, 0.5]),
        n_copies=st.integers(0, 10),
        eps=st.sampled_from([0.05, 0.2, 0.4, 0.7]),
        tau=st.integers(1, 8),
        exact=st.booleans(),
        # Below 1 the gate lets false positives through, above 1 it
        # makes false negatives that E and post-processing repair.
        alpha=st.sampled_from([0.5, 1.0, 1.5, 3.0]),
        p=st.sampled_from([0.3, 1.0]),
        query_block=st.sampled_from([1, 7, 1024]),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_sphere_data(
        self,
        cls,
        seed,
        n,
        dim,
        n_centers,
        spread,
        n_copies,
        eps,
        tau,
        exact,
        alpha,
        p,
        query_block,
    ):
        X = sphere_data(seed, n, dim, n_centers, spread, n_copies)
        execution = ExecutionConfig(query_block=query_block)

        def build():
            return make(cls, X, eps, tau, alpha, seed, exact, p, execution)

        assert_same(outcome(build(), X), oracle(build, X))

    @pytest.mark.parametrize("tau", [5, 10])
    def test_blobs_with_false_negatives(self, cls, tau):
        X, _ = make_blobs_on_sphere(60, 4, 8, spread=0.4, seed=1)

        def build():
            return make(cls, X, 0.2, tau, 2.0, 0, exact=False)

        got = outcome(build(), X)
        assert_same(got, oracle(build, X))
        assert got["skipped_queries"] > 0
        assert got["fn_detected"] > 0

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_remote_shards_equal_the_unsharded_fit(
        self, cls, n_shards, worker_pool, clusterable_data
    ):
        X = clusterable_data
        execution = ExecutionConfig(
            sharding=ShardingConfig(
                n_shards=n_shards, executor=worker_pool.executor_spec()
            )
        )

        def build(execution=None):
            return make(cls, X, 0.5, 5, 1.5, 0, exact=False, execution=execution)

        sharded = outcome(build(execution), X)
        assert_same(sharded, outcome(build(), X))
        assert_same(sharded, oracle(lambda: build(execution), X))


class TestPlanNeighborhoods:
    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_equal_the_full_rows(self, metric, unit_vectors_small):
        X = np.vstack([unit_vectors_small, unit_vectors_small[:7]])
        index = BruteForceIndex(block_size=5, metric=metric).build(X)
        eps = 0.9 if metric == "cosine" else 1.2
        for plan in (np.arange(0, len(X), 2), np.arange(len(X)), np.array([4])):
            got = plan_neighborhoods(index, plan, eps)
            want = index.batch_range_query_rows(plan, eps)
            assert len(got) == len(want) == plan.size
            for a, b in zip(got, want):
                assert a.dtype == np.int64
                assert np.array_equal(a, b)

    def test_empty_plan(self, unit_vectors_small):
        index = BruteForceIndex().build(unit_vectors_small)
        assert plan_neighborhoods(index, np.empty(0, dtype=np.int64), 0.5) == []
