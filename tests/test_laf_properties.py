"""Property-based tests of LAF's structural invariants.

These check properties that must hold for *any* estimator and alpha:

* the partial-neighbor map only ever contains true neighbors;
* a fit leaves no state on the shared :class:`LAF` bundle or its
  estimator;
* post-processing only merges clusters (the final partition is coarser
  than or equal to the pre-repair one on non-noise points);
* points LAF assigns to clusters are within eps of some cluster member;
* LAF's executed + skipped queries account for every CardEst decision.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clustering.base import NOISE
from repro.core import LAFDBSCAN, LAFDBSCANPlusPlus
from repro.core.laf import LAF
from repro.distances import normalize_rows
from repro.estimators import SamplingCardinalityEstimator
from repro.index import BruteForceIndex


def make_laf(seed: int, alpha: float, post: bool = True):
    rng = np.random.default_rng(seed)
    X = normalize_rows(rng.normal(size=(60, 10)))
    estimator = SamplingCardinalityEstimator(sample_size=15, seed=seed).fit(X)
    clusterer = LAFDBSCAN(
        eps=0.6,
        tau=4,
        estimator=estimator,
        alpha=alpha,
        enable_post_processing=post,
        seed=seed,
    )
    return X, clusterer


def run_laf(seed: int, alpha: float, post: bool = True):
    X, clusterer = make_laf(seed, alpha, post)
    return X, clusterer, clusterer.fit(X)


class TestStructuralInvariants:
    @given(st.integers(0, 500), st.floats(0.5, 6.0))
    @settings(max_examples=20, deadline=None)
    def test_partial_neighbors_are_true_neighbors(self, fit_with_E, seed, alpha):
        X, clusterer = make_laf(seed, alpha)
        _, E = fit_with_E(clusterer, X)
        index = BruteForceIndex().build(X)
        for point, partial in E.items():
            true_neighbors = set(index.range_query(X[point], 0.6).tolist())
            assert set(partial.tolist()) <= true_neighbors

    @given(st.integers(0, 500), st.floats(1.0, 6.0))
    @example(seed=94, alpha=3.0)  # a repaired point that was already a border
    @settings(max_examples=20, deadline=None)
    def test_postprocessing_only_coarsens(self, seed, alpha):
        X, _, with_pp = run_laf(seed, alpha, post=True)
        _, _, without_pp = run_laf(seed, alpha, post=False)
        # Any two points sharing a cluster before repair still share one
        # after repair (repair merges; it never splits).
        pre = without_pp.labels
        post = with_pp.labels
        for a in range(0, len(pre), 7):
            for b in range(a + 1, len(pre), 11):
                if pre[a] != NOISE and pre[a] == pre[b]:
                    assert post[a] == post[b], (seed, alpha, a, b)

    @given(st.integers(0, 500), st.floats(0.5, 6.0))
    @settings(max_examples=15, deadline=None)
    def test_clustered_points_have_nearby_cluster_members(self, seed, alpha):
        X, _, result = run_laf(seed, alpha)
        labels = result.labels
        for p in range(0, len(labels), 9):
            if labels[p] == NOISE:
                continue
            same = np.flatnonzero(labels == labels[p])
            same = same[same != p]
            if same.size == 0:
                continue
            dists = 1.0 - X[same] @ X[p]
            assert dists.min() < 0.6, "clustered point with no nearby member"

    @given(st.integers(0, 500), st.floats(0.5, 6.0))
    @settings(max_examples=20, deadline=None)
    def test_query_accounting(self, seed, alpha):
        X, _, result = run_laf(seed, alpha)
        stats = result.stats
        assert stats["cardest_calls"] == X.shape[0]
        assert stats["range_queries"] + stats["skipped_queries"] <= X.shape[0]
        assert stats["predicted_stop_points"] == stats["skipped_queries"]


class TestLAFBundle:
    def test_finalize_without_post_processing_counts_false_negatives(self):
        bundle = LAF(SamplingCardinalityEstimator(seed=0), enable_post_processing=False)
        labels = np.array([0, 0, 1, -1, -1])
        E = {3: np.array([0, 1, 2]), 4: np.array([2])}
        outcome = bundle.finalize(labels, tau=2, E=E)
        assert np.array_equal(outcome.labels, labels)
        assert (outcome.n_false_negatives, outcome.n_merges) == (1, 0)

    @pytest.mark.parametrize("cls", [LAFDBSCAN, LAFDBSCANPlusPlus])
    def test_fit_leaves_no_state_on_the_bundle(self, cls):
        """A fit's ``E`` and counters stay local: the shared bundle keeps
        the keys it was built with, and none of them holds an array or a
        map, so concurrent fits cannot see each other's. The fit binds
        a copy of the estimator, so the estimator is left as it was."""
        X = normalize_rows(np.random.default_rng(0).normal(size=(60, 10)))
        estimator = SamplingCardinalityEstimator(sample_size=15, seed=0).fit(X)
        clusterer = cls(eps=0.6, tau=4, estimator=estimator, alpha=2.0)
        before = dict(vars(clusterer.laf))
        estimator_before = dict(vars(estimator))
        result = clusterer.fit(X)
        assert result.stats["predicted_stop_points"] > 0
        after = vars(clusterer.laf)
        assert after.keys() == before.keys()
        for key, value in after.items():
            assert value is before[key], key
            assert not isinstance(value, (np.ndarray, dict, list, set)), key
        assert vars(estimator).keys() == estimator_before.keys()
        for key, value in vars(estimator).items():
            assert value is estimator_before[key], key

    def test_begin_run_returns_gate_mask(self):
        rng = np.random.default_rng(0)
        X = normalize_rows(rng.normal(size=(30, 6)))
        estimator = SamplingCardinalityEstimator(sample_size=10, seed=0).fit(X)
        bundle = LAF(estimator, alpha=1.0)
        mask = bundle.begin_run(X, eps=0.6, tau=3)
        estimator = estimator.bind(X)
        expected = estimator.estimate_many(X, 0.6) >= 3.0
        assert np.array_equal(mask, expected)
