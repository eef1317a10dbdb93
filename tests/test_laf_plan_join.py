"""LAF's one plan join, against a line-by-line Algorithms 1 and 2 oracle.

LAF-DBSCAN and LAF-DBSCAN++ make one ``range_pairs(eps, rows=plan)``
join. :func:`repro.core.laf.plan_neighborhoods` turns it into each
planned row's neighbourhood, and :func:`repro.core.laf.partial_neighbors`
reads the map ``E`` off the same pairs through two stamps per row. The
oracles here run the paper's loops as written: one scalar range query
per executed row, and ``E`` a dict of sets that every executed query
updates with the stop points registered so far. Labels, core masks,
``fn_detected``, ``merges``, the skipped and executed query counts and
``E`` (registration order and members) must agree bit for bit.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.base import NOISE, canonicalize_labels
from repro.clustering.components import connected_components_within
from repro.core import LAFDBSCAN, LAFDBSCANPlusPlus, post_process
from repro.core.laf import plan_neighborhoods
from repro.distances import iter_distance_blocks, nearest_in_blocks, normalize_rows
from repro.engine_config import ExecutionConfig
from repro.estimators import ExactCardinalityEstimator, SamplingCardinalityEstimator
from repro.index import BruteForceIndex, ShardingConfig
from repro.testing import make_blobs_on_sphere

STATS = ("fn_detected", "merges", "skipped_queries", "range_queries")


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


def outcome(labels, core_mask, E, **stats):
    return {
        "labels": canonicalize_labels(labels),
        "core_mask": core_mask,
        **stats,
        "E": [(int(s), sorted(members)) for s, members in E.items()],
    }


def fitted(clusterer, X, fit_with_E):
    """Everything a LAF fit leaves that the plan join could move."""
    result, E = fit_with_E(clusterer, X)
    for members in E.values():
        assert members.dtype == np.int64
        assert np.all(np.diff(members) > 0)  # ascending and unique
    return outcome(
        result.labels,
        result.core_mask,
        {s: members.tolist() for s, members in E.items()},
        **{stat: result.stats[stat] for stat in STATS},
    )


def assert_same(got, want):
    assert got.keys() == want.keys()
    for key in want:
        if isinstance(want[key], np.ndarray):
            assert np.array_equal(got[key], want[key]), key
        else:
            assert got[key] == want[key], key


def update_partial_neighbors(E, p, neighbors):
    """Algorithm 2: ``p`` joins ``E(P_n)`` for every registered ``P_n``
    its query found."""
    for q in neighbors.tolist():
        if q in E and q != p:
            E[q].add(p)


def repair(clusterer, labels, E):
    """Algorithm 3 over the oracle's ``E``."""
    E = {s: np.array(sorted(members), dtype=np.int64) for s, members in E.items()}
    return post_process(labels, E, clusterer.tau)


def laf_dbscan_oracle(clusterer, X):
    """Algorithm 1 line by line, with a scalar range query per row."""
    eps, tau, n = clusterer.eps, clusterer.tau, len(X)
    predicted_core = clusterer.laf.begin_run(X, eps, tau)
    index = BruteForceIndex().build(X)
    E: dict[int, set[int]] = {}
    labels = np.full(n, -2, dtype=np.int64)
    core_mask = np.zeros(n, dtype=bool)
    queries = skipped = 0
    cluster = -1
    for p in range(n):
        if labels[p] != -2:
            continue
        if not predicted_core[p]:
            labels[p] = NOISE
            E.setdefault(p, set())
            skipped += 1
            continue
        neighbors = index.range_query(X[p], eps)
        queries += 1
        update_partial_neighbors(E, p, neighbors)
        if neighbors.size < tau:
            labels[p] = NOISE
            continue
        cluster += 1
        labels[p] = cluster
        core_mask[p] = True
        seeds = deque(q for q in neighbors.tolist() if q != p)
        while seeds:
            q = seeds.popleft()
            if labels[q] == NOISE:
                labels[q] = cluster
            if labels[q] != -2:
                continue
            labels[q] = cluster
            if predicted_core[q]:
                q_neighbors = index.range_query(X[q], eps)
                queries += 1
                update_partial_neighbors(E, q, q_neighbors)
                if q_neighbors.size >= tau:
                    core_mask[q] = True
                    seeds.extend(q_neighbors.tolist())
            else:
                E.setdefault(q, set())
                skipped += 1
    repaired = repair(clusterer, labels, E)
    return outcome(
        repaired.labels,
        core_mask,
        E,
        fn_detected=repaired.n_false_negatives,
        merges=repaired.n_merges,
        skipped_queries=skipped,
        range_queries=queries,
    )


def laf_dbscanpp_oracle(clusterer, X):
    """LAF-DBSCAN++ line by line: the gate over the sample, a scalar
    range query per gated point in sample order, then DBSCAN++'s core
    graph and nearest-core assignment."""
    eps, tau, n = clusterer.eps, clusterer.tau, len(X)
    predicted_core = clusterer.laf.begin_run(X, eps, tau)
    m = max(1, int(round(clusterer.p * n)))
    rng = np.random.default_rng(clusterer.seed)  # the fit's sample draw
    sample = np.sort(rng.choice(n, size=m, replace=False))
    index = BruteForceIndex().build(X)
    E = {s: set() for s in sample.tolist() if not predicted_core[s]}
    cores = []
    queries = 0
    for s in sample.tolist():
        if predicted_core[s]:
            neighbors = index.range_query(X[s], eps)
            queries += 1
            update_partial_neighbors(E, s, neighbors)
            if neighbors.size >= tau:
                cores.append(s)
    labels = np.full(n, NOISE, dtype=np.int64)
    core_mask = np.zeros(n, dtype=bool)
    if cores:
        core_pairs = BruteForceIndex().build(X[cores]).range_pairs(eps)
        core_labels, _ = connected_components_within(core_pairs, np.arange(len(cores)))
        labels[cores] = core_labels
        core_mask[cores] = True
        rest = np.flatnonzero(~core_mask)
        nearest, distance = nearest_in_blocks(
            iter_distance_blocks(X[rest], X[cores]), rest.size
        )
        labels[rest] = np.where(distance < eps, core_labels[nearest], NOISE)
    repaired = repair(clusterer, labels, E)
    return outcome(
        repaired.labels,
        core_mask,
        E,
        fn_detected=repaired.n_false_negatives,
        merges=repaired.n_merges,
        skipped_queries=len(E),
        range_queries=queries,
    )


def oracle(build, X):
    """``build()``'s fit, as the paper's loops compute it."""
    clusterer = build()
    if isinstance(clusterer, LAFDBSCANPlusPlus):
        return laf_dbscanpp_oracle(clusterer, X)
    return laf_dbscan_oracle(clusterer, X)


def sphere_data(seed, n, dim, n_centers, spread, n_copies=0):
    """Points around a few random centres on the unit sphere, the first
    ``n_copies`` of them repeated at the end."""
    rng = np.random.default_rng(seed)
    centers = normalize_rows(rng.normal(size=(n_centers, dim)))
    X = centers[rng.integers(0, n_centers, size=n)]
    X = normalize_rows(X + spread * rng.normal(size=(n, dim)))
    return np.vstack([X, X[:n_copies]])


@pytest.mark.parametrize("cls", [LAFDBSCAN, LAFDBSCANPlusPlus])
class TestAgainstLineByLineOracle:
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
        fit_with_E,
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

        assert_same(fitted(build(), X, fit_with_E), oracle(build, X))

    @pytest.mark.parametrize("tau", [5, 10])
    def test_blobs_with_false_negatives(self, cls, tau, fit_with_E):
        X, _ = make_blobs_on_sphere(60, 4, 8, spread=0.4, seed=1)

        def build():
            return make(cls, X, 0.2, tau, 2.0, 0, exact=False)

        got = fitted(build(), X, fit_with_E)
        assert_same(got, oracle(build, X))
        assert got["skipped_queries"] > 0
        assert got["fn_detected"] > 0

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_remote_shards_equal_the_unsharded_fit(
        self, cls, n_shards, worker_pool, clusterable_data, fit_with_E
    ):
        X = clusterable_data
        execution = ExecutionConfig(
            sharding=ShardingConfig(
                n_shards=n_shards, executor=worker_pool.executor_spec()
            )
        )

        def build(execution=None):
            return make(cls, X, 0.5, 5, 1.5, 0, exact=False, execution=execution)

        sharded = fitted(build(execution), X, fit_with_E)
        assert_same(sharded, fitted(build(), X, fit_with_E))
        assert_same(sharded, oracle(lambda: build(execution), X))


class TestPlanNeighborhoods:
    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_equal_the_full_rows(self, metric, unit_vectors_small):
        X = np.vstack([unit_vectors_small, unit_vectors_small[:7]])
        index = BruteForceIndex(block_size=5, metric=metric).build(X)
        eps = 0.9 if metric == "cosine" else 1.2
        for plan in (np.arange(0, len(X), 2), np.arange(len(X)), np.array([4])):
            pairs = index.range_pairs(eps, rows=plan)
            got = plan_neighborhoods(pairs, plan, len(X))
            want = index.batch_range_query_rows(plan, eps)
            assert len(got) == len(want) == plan.size
            for a, b in zip(got, want):
                assert a.dtype == np.int64
                assert np.array_equal(a, b)

    def test_empty_plan(self, unit_vectors_small):
        index = BruteForceIndex().build(unit_vectors_small)
        plan = np.empty(0, dtype=np.int64)
        pairs = index.range_pairs(0.5, rows=plan)
        assert plan_neighborhoods(pairs, plan, len(unit_vectors_small)) == []
