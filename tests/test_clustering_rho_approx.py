"""Tests for rho-approximate DBSCAN."""

import numpy as np
import pytest

from repro.clustering import DBSCAN, RhoApproxDBSCAN
from repro.exceptions import InvalidParameterError
from repro.index import BruteForceIndex
from repro.metrics import adjusted_rand_index


class TestParameters:
    def test_invalid_rho(self):
        with pytest.raises(InvalidParameterError):
            RhoApproxDBSCAN(eps=0.5, tau=3, rho=0.0)
        with pytest.raises(InvalidParameterError):
            RhoApproxDBSCAN(eps=0.5, tau=3, rho=-1.0)


class TestSmallRhoApproachesDBSCAN:
    def test_blobs_with_tiny_rho(self, blob_data):
        X, _ = blob_data
        eps, tau = 0.5, 4
        exact = DBSCAN(eps=eps, tau=tau).fit(X)
        approx = RhoApproxDBSCAN(eps=eps, tau=tau, rho=0.01).fit(X)
        assert adjusted_rand_index(exact.labels, approx.labels) > 0.95

    def test_clusterable_with_tiny_rho(self, clusterable_data):
        eps, tau = 0.5, 5
        exact = DBSCAN(eps=eps, tau=tau).fit(clusterable_data)
        approx = RhoApproxDBSCAN(eps=eps, tau=tau, rho=0.01).fit(clusterable_data)
        assert adjusted_rand_index(exact.labels, approx.labels) > 0.9


class TestApproximationSemantics:
    def test_core_mask_sandwich(self, clusterable_data):
        """Cores at eps must stay core; cores invented by the relaxation
        must at least be core at eps(1+rho)-equivalent radius."""
        eps, tau, rho = 0.5, 5, 0.5
        result = RhoApproxDBSCAN(eps=eps, tau=tau, rho=rho).fit(clusterable_data)
        index = BruteForceIndex().build(clusterable_data)
        exact_counts = index.batch_range_count(clusterable_data, eps)
        # Every true core is detected (counts can only grow).
        assert result.core_mask[exact_counts >= tau].all()
        # Every claimed core is justified at the relaxed radius.
        eps_outer = min(2.0, (1 + rho) ** 2 * eps)
        outer_counts = index.batch_range_count(clusterable_data, eps_outer)
        claimed = np.flatnonzero(result.core_mask)
        assert (outer_counts[claimed] >= tau).all()

    def test_large_rho_merges_more(self, clusterable_data):
        eps, tau = 0.5, 5
        tight = RhoApproxDBSCAN(eps=eps, tau=tau, rho=0.05).fit(clusterable_data)
        loose = RhoApproxDBSCAN(eps=eps, tau=tau, rho=1.0).fit(clusterable_data)
        assert loose.n_clusters <= tight.n_clusters
        assert loose.noise_ratio <= tight.noise_ratio

    def test_stats_present(self, clusterable_data):
        result = RhoApproxDBSCAN(eps=0.5, tau=5, rho=0.5).fit(clusterable_data)
        assert {"count_queries", "n_cells", "n_core"} <= set(result.stats)

    def test_dense_cells_shortcut(self):
        # Identical points share one cell; with >= tau members they are
        # all core without any count queries.
        from repro.distances import normalize_rows

        X = normalize_rows(np.ones((10, 6)))
        result = RhoApproxDBSCAN(eps=0.5, tau=5, rho=0.5).fit(X)
        assert result.core_mask.all()
        assert result.n_clusters == 1
        assert result.stats["count_queries"] == 0

    def test_deterministic(self, clusterable_data):
        a = RhoApproxDBSCAN(eps=0.5, tau=5).fit(clusterable_data)
        b = RhoApproxDBSCAN(eps=0.5, tau=5).fit(clusterable_data)
        assert np.array_equal(a.labels, b.labels)


class TestBorderPhase:
    """Non-core points attach through exact brute-force range queries."""

    # A small rho leaves the blobs' outskirts and the noise non-core, so
    # the border queries run, and some borders reach two clusters' cores.
    EPS, TAU, RHO = 0.8, 8, 0.01

    def test_border_takes_lowest_index_core_label(self, clusterable_data):
        X = clusterable_data
        result = RhoApproxDBSCAN(eps=self.EPS, tau=self.TAU, rho=self.RHO).fit(X)
        assert result.stats["range_queries"] == np.count_nonzero(~result.core_mask)
        cores = np.flatnonzero(result.core_mask)
        # float64 oracle: cosine distance of every point to every core.
        within = np.maximum(0.0, 1.0 - X @ X[cores].T) < self.EPS
        n_contested = 0
        for p in np.flatnonzero(~result.core_mask):
            reachable = cores[within[p]]
            expected = result.labels[reachable[0]] if reachable.size else -1
            assert result.labels[p] == expected, p
            n_contested += np.unique(result.labels[reachable]).size > 1
        assert n_contested > 0
