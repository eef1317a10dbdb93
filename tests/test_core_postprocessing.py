"""Tests for Algorithm 3 (PostProcessing)."""

import numpy as np

from repro.clustering.base import canonicalize_labels
from repro.core import post_process


class TestNoFalseNegatives:
    def test_below_tau_untouched(self):
        labels = np.array([0, 0, 1, 1, -1])
        E = {4: np.array([0, 2])}  # only 2 partial neighbors < tau=3
        outcome = post_process(labels, E, tau=3)
        assert np.array_equal(outcome.labels, labels)
        assert outcome.n_false_negatives == 0
        assert outcome.n_merges == 0

    def test_empty_E(self):
        labels = np.array([0, 1, -1])
        outcome = post_process(labels, {}, tau=2)
        assert np.array_equal(outcome.labels, labels)

    def test_input_not_mutated(self):
        labels = np.array([0, 0, 1, 1, -1])
        E = {4: np.array([0, 1, 2, 3])}
        post_process(labels, E, tau=3)
        assert labels[4] == -1


class TestMerging:
    def test_split_cluster_is_repaired(self):
        # Points 0,1 in cluster 0; points 2,3 in cluster 1; point 4 is a
        # false stop point adjacent to all of them -> one merged cluster.
        labels = np.array([0, 0, 1, 1, -1])
        E = {4: np.array([0, 1, 2, 3])}
        outcome = post_process(labels, E, tau=3)
        assert outcome.n_false_negatives == 1
        assert outcome.n_merges == 1
        merged = outcome.labels
        assert merged[0] == merged[1] == merged[2] == merged[3] == merged[4]

    def test_false_negative_point_joins_destination(self):
        labels = np.array([0, 0, 0, -1])
        E = {3: np.array([0, 1, 2])}
        outcome = post_process(labels, E, tau=3)
        assert outcome.labels[3] == outcome.labels[0]

    def test_three_way_merge(self):
        labels = np.array([0, 1, 2, -1])
        E = {3: np.array([0, 1, 2])}
        outcome = post_process(labels, E, tau=3)
        assert outcome.n_merges == 2
        assert len(set(outcome.labels.tolist())) == 1

    def test_noise_partial_neighbors_stay_noise(self):
        labels = np.array([0, 0, -1, -1, -1])
        # Stop point 4 has neighbors {0, 1, 2}: 2 is noise and must not
        # be pulled into the cluster by the merge.
        E = {4: np.array([0, 1, 2])}
        outcome = post_process(labels, E, tau=3)
        assert outcome.labels[2] == -1
        assert outcome.labels[4] == outcome.labels[0]

    def test_all_noise_neighbors_no_merge(self):
        labels = np.array([-1, -1, -1, -1])
        E = {3: np.array([0, 1, 2])}
        outcome = post_process(labels, E, tau=3)
        assert outcome.n_false_negatives == 1
        assert outcome.n_merges == 0
        assert np.array_equal(outcome.labels, labels)

    def test_chained_merges_compose(self):
        # Two false stop points each bridging a different pair of the
        # same three clusters; union-find must chain them.
        labels = np.array([0, 0, 1, 1, 2, 2, -1, -1])
        E = {6: np.array([0, 1, 2, 3]), 7: np.array([2, 3, 4, 5])}
        outcome = post_process(labels, E, tau=3)
        cluster_ids = set(outcome.labels[outcome.labels >= 0].tolist())
        assert len(cluster_ids) == 1

    def test_clusters_take_their_root_id(self):
        # Repairs of 7 and 8 chain clusters 0, 3 and 1 into one set; its
        # union-find root (cluster 0, the first member's, which the
        # union keeps) names every member, cluster 2 keeps its id.
        labels = np.array([0, 0, 1, 1, 2, 2, 3, -1, -1])
        E = {7: np.array([0, 6]), 8: np.array([1, 2])}
        outcome = post_process(labels, E, tau=2)
        assert outcome.n_merges == 2
        assert outcome.labels.tolist() == [0, 0, 0, 0, 2, 2, 0, 0, 0]

    def test_member_order_within_E_does_not_matter(self):
        # The destination is the first non-noise member; any other pick
        # merges the same clusters, so shuffling every E(s) keeps the
        # partition and the counters.
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            labels = rng.integers(-1, int(rng.integers(1, 8)), size=n)
            stops = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            sizes = rng.integers(0, n, size=stops.size)
            E = {
                int(s): np.sort(rng.choice(n, size=int(k), replace=False))
                for s, k in zip(stops, sizes)
            }
            shuffled = {s: rng.permutation(members) for s, members in E.items()}
            tau = int(rng.integers(1, 5))
            a = post_process(labels, E, tau)
            b = post_process(labels, shuffled, tau)
            assert np.array_equal(
                canonicalize_labels(a.labels), canonicalize_labels(b.labels)
            )
            assert (a.n_false_negatives, a.n_merges) == (
                b.n_false_negatives,
                b.n_merges,
            )

    def test_unrelated_clusters_untouched(self):
        labels = np.array([0, 0, 1, 1, 2, 2, -1])
        E = {6: np.array([0, 1, 2])}  # bridges clusters 0 and 1 only
        outcome = post_process(labels, E, tau=3)
        assert outcome.labels[0] == outcome.labels[2]
        # Cluster 2 remains distinct.
        assert outcome.labels[4] != outcome.labels[0]
