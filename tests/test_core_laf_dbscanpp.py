"""Tests for LAF-DBSCAN++."""

import numpy as np
import pytest

from repro.clustering import DBSCANPlusPlus
from repro.core import LAFDBSCANPlusPlus
from repro.estimators import ExactCardinalityEstimator, SamplingCardinalityEstimator
from repro.exceptions import InvalidParameterError
from repro.metrics import adjusted_rand_index

from repro.testing import make_blobs_on_sphere


class TestParameters:
    def test_invalid_p(self):
        with pytest.raises(InvalidParameterError):
            LAFDBSCANPlusPlus(
                eps=0.5, tau=3, estimator=ExactCardinalityEstimator(), p=0.0
            )

    def test_paper_default_alpha_is_one(self):
        laf = LAFDBSCANPlusPlus(
            eps=0.5, tau=3, estimator=ExactCardinalityEstimator(), p=0.5
        )
        assert laf.laf.alpha == 1.0


class TestOracleEquivalence:
    """Oracle + alpha=1: gating agrees with the exact core test, so the
    clustering equals DBSCAN++ with the same sample (queries skipped)."""

    def test_same_labels_as_dbscanpp(self, clusterable_data):
        eps, tau, p, seed = 0.5, 5, 0.4, 7
        plain = DBSCANPlusPlus(eps=eps, tau=tau, p=p, seed=seed).fit(clusterable_data)
        laf = LAFDBSCANPlusPlus(
            eps=eps,
            tau=tau,
            estimator=ExactCardinalityEstimator(),
            p=p,
            alpha=1.0,
            seed=seed,
        ).fit(clusterable_data)
        assert adjusted_rand_index(plain.labels, laf.labels) == pytest.approx(1.0)

    def test_queries_skipped(self, clusterable_data):
        laf = LAFDBSCANPlusPlus(
            eps=0.5,
            tau=5,
            estimator=ExactCardinalityEstimator(),
            p=0.5,
            seed=0,
        ).fit(clusterable_data)
        assert laf.stats["skipped_queries"] > 0
        assert (
            laf.stats["range_queries"] + laf.stats["skipped_queries"]
            == laf.stats["sample_size"]
        )

    def test_core_subset_of_sample(self, clusterable_data):
        laf = LAFDBSCANPlusPlus(
            eps=0.5, tau=5, estimator=ExactCardinalityEstimator(), p=0.3, seed=1
        ).fit(clusterable_data)
        assert laf.stats["n_core"] <= laf.stats["sample_size"]


class TestWithImperfectEstimator:
    def test_runs_and_scores_reasonably(self):
        X, y = make_blobs_on_sphere(50, 3, 24, spread=0.25, seed=2)
        estimator = SamplingCardinalityEstimator(sample_size=30, seed=0).fit(X)
        laf = LAFDBSCANPlusPlus(eps=0.5, tau=4, estimator=estimator, p=0.5, seed=0).fit(
            X
        )
        assert adjusted_rand_index(y, laf.labels) > 0.5

    def test_no_core_detected_all_noise(self, unit_vectors_small):
        laf = LAFDBSCANPlusPlus(
            eps=0.02,
            tau=10,
            estimator=ExactCardinalityEstimator(),
            p=0.5,
            seed=0,
        ).fit(unit_vectors_small)
        assert laf.noise_ratio == 1.0
        assert laf.n_clusters == 0

    def test_deterministic(self, clusterable_data):
        estimator = SamplingCardinalityEstimator(sample_size=40, seed=1).fit(
            clusterable_data
        )
        a = LAFDBSCANPlusPlus(eps=0.5, tau=5, estimator=estimator, p=0.4, seed=4).fit(
            clusterable_data
        )
        b = LAFDBSCANPlusPlus(eps=0.5, tau=5, estimator=estimator, p=0.4, seed=4).fit(
            clusterable_data
        )
        assert np.array_equal(a.labels, b.labels)

    def test_stats_complete(self, clusterable_data):
        laf = LAFDBSCANPlusPlus(
            eps=0.5, tau=5, estimator=ExactCardinalityEstimator(), p=0.4, seed=0
        ).fit(clusterable_data)
        assert {
            "range_queries",
            "skipped_queries",
            "sample_size",
            "n_core",
            "fn_detected",
            "merges",
            "cardest_calls",
            "core_graph_pairs",
            "n_core_components",
        } <= set(laf.stats)

    def test_core_graph_matches_dbscanpp(self, clusterable_data):
        # Oracle + alpha=1 finds DBSCAN++'s cores, hence its core graph.
        eps, tau, p, seed = 0.5, 5, 0.4, 7
        plain = DBSCANPlusPlus(eps=eps, tau=tau, p=p, seed=seed).fit(clusterable_data)
        laf = LAFDBSCANPlusPlus(
            eps=eps, tau=tau, estimator=ExactCardinalityEstimator(), p=p, seed=seed
        ).fit(clusterable_data)
        for key in ("core_graph_pairs", "n_core_components"):
            assert laf.stats[key] == plain.stats[key]
        assert laf.stats["core_graph_pairs"] > 0
