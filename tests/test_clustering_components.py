"""Tests for the core-graph labeller every host reads its join into."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.clustering.components import connected_components_within
from repro.distances import matrix, normalize_rows
from repro.index.brute_force import BruteForceIndex


def _oracle(X, eps):
    """``(labels, n_pairs)`` from per-pair float64 decisions and union-find.

    Components are numbered in order of their lowest row.
    """
    m = X.shape[0]
    within = np.maximum(0.0, 1.0 - X @ X.T) < eps
    root = np.arange(m)  # quick-find: every row points at its component's lowest row
    n_pairs = 0
    for i in range(m):
        linked = np.flatnonzero(within[i, i + 1 :]) + i + 1
        n_pairs += linked.size
        merged = np.unique(root[np.append(linked, i)])
        root[np.isin(root, merged)] = merged[0]
    return np.unique(root, return_inverse=True)[1], n_pairs


def _components(X, eps, members=None):
    """The labeller over ``members`` (default every row) of ``X``'s self-join."""
    pairs = BruteForceIndex().build(X).range_pairs(eps)
    members = np.arange(len(X)) if members is None else members
    return connected_components_within(pairs, members)


def _sparse_graph_case(m, dim, seed=0):
    """``m`` random unit rows and an eps giving about ``1.5 m`` pairs.

    eps sits halfway between two consecutive pair distances, so no
    pair is near the threshold and the graph has many components.
    """
    X = normalize_rows(np.random.default_rng(seed).normal(size=(m, dim)))
    if m < 2:
        return X, 0.5
    D = (1.0 - X @ X.T)[np.triu_indices(m, k=1)]
    k = min(D.size - 1, int(1.5 * m))
    lower, upper = np.partition(D, (k - 1, k))[k - 1 : k + 1]
    return X, (lower + upper) / 2


def _planted_pairs(dim, eps, n_fill=2000, seed=0):
    """Rows at similarities a few float32 ulps either side of ``1 - eps``
    to a hub row, ``n_fill`` random rows that dilute the kernel's band,
    and the hub last.
    """
    rng = np.random.default_rng(seed)
    hub = normalize_rows(rng.normal(size=(1, dim)))[0]
    ulp = 2.0**-24  # a float32 ulp just below 1, the largest similarity
    offsets = np.array([k * ulp for k in (-4, -2, -1, 1, 2, 4)])
    a = 1.0 - eps + offsets
    V = rng.normal(size=(a.size, dim))
    V = normalize_rows(V - np.outer(V @ hub, hub))
    rows = a[:, None] * hub + np.sqrt(1.0 - a * a)[:, None] * V
    assert np.array_equal(1.0 - rows @ hub < eps, offsets > 0)
    fill = normalize_rows(rng.normal(size=(n_fill, dim)))
    return np.vstack([rows, fill, hub])


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the range kernel's float64 fallback blocks."""
    calls = []
    original = matrix.cosine_distance_matrix

    def counting(Q, X):
        calls.append(Q.shape[0])
        return original(Q, X)

    monkeypatch.setattr(matrix, "cosine_distance_matrix", counting)
    return calls


class TestConnectedComponentsWithin:
    def test_two_far_groups(self):
        rng = np.random.default_rng(0)
        a = normalize_rows(np.array([1.0, 0.0, 0.0]) + 0.01 * rng.normal(size=(5, 3)))
        b = normalize_rows(np.array([-1.0, 0.0, 0.0]) + 0.01 * rng.normal(size=(5, 3)))
        labels, _ = _components(np.vstack([a, b]), eps=0.5)
        assert len(set(labels[:5].tolist())) == 1
        assert len(set(labels[5:].tolist())) == 1
        assert labels[0] != labels[5]

    def test_chain_connectivity(self):
        # Points on a great-circle arc, each within eps of its neighbor
        # but not of the far end: one chained component.
        angles = np.linspace(0.0, 1.2, 7)
        X = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        step_gap = 1.0 - np.cos(angles[1] - angles[0])
        end_gap = 1.0 - np.cos(angles[-1] - angles[0])
        eps = step_gap * 1.5
        assert eps < end_gap
        labels, _ = _components(X, eps=eps)
        assert len(set(labels.tolist())) == 1

    def test_all_singletons(self):
        X = np.eye(4)
        labels, n_pairs = _components(X, eps=0.5)
        assert len(set(labels.tolist())) == 4
        assert n_pairs == 0

    def test_matches_naive_union_find(self):
        from repro.clustering import UnionFind

        rng = np.random.default_rng(3)
        X = normalize_rows(rng.normal(size=(40, 6)))
        eps = 0.6
        fast, _ = _components(X, eps)
        uf = UnionFind(40)
        dists = 1.0 - X @ X.T
        for i in range(40):
            for j in range(i + 1, 40):
                if dists[i, j] < eps:
                    uf.union(i, j)
        for i in range(40):
            for j in range(40):
                assert (fast[i] == fast[j]) == uf.connected(i, j)

    @pytest.mark.parametrize("m", [1, 1023, 1024, 1025, 2600])
    @pytest.mark.parametrize("dim", [3, 64])
    def test_matches_float64_oracle(self, m, dim):
        # 2600 rows span three row blocks of the upper triangle.
        X, eps = _sparse_graph_case(m, dim)
        labels, n_pairs = _components(X, eps)
        want, want_pairs = _oracle(X, eps)
        assert np.array_equal(labels, want)
        assert n_pairs == want_pairs
        if m > 1:
            assert 1 < labels.max() + 1 < m

    def test_component_ids_ordered_by_lowest_row(self):
        X, eps = _sparse_graph_case(1025, 3, seed=4)
        labels, _ = _components(X, eps)
        ids, first_rows = np.unique(labels, return_index=True)
        assert np.array_equal(ids, np.arange(ids.size))
        assert np.all(np.diff(first_rows) > 0)

    def test_duplicated_rows(self):
        X, eps = _sparse_graph_case(600, 8, seed=1)
        X2 = np.vstack([X, X[::-1]])
        labels, n_pairs = _components(X2, eps)
        assert np.array_equal(labels[:600], labels[600:][::-1])
        want, want_pairs = _oracle(X2, eps)
        assert np.array_equal(labels, want)
        assert n_pairs == want_pairs

    def test_eps_two_keeps_antipodal_pairs_apart(self):
        x = normalize_rows(np.random.default_rng(2).normal(size=(1, 16)))[0]
        labels, n_pairs = _components(np.stack([x, -x]), 2.0)
        assert labels.tolist() == [0, 1] and n_pairs == 0
        # An orthogonal row is within 2.0 of both and joins them.
        y = np.zeros(16)
        y[np.argmin(np.abs(x))] = 1.0
        y = normalize_rows((y - (y @ x) * x)[None, :])[0]
        labels, n_pairs = _components(np.stack([x, -x, y]), 2.0)
        assert labels.tolist() == [0, 0, 0] and n_pairs == 2

    @pytest.mark.parametrize("eps", [0.05, 0.55, 1.0, 1.95])
    @pytest.mark.parametrize("dim", [3, 64, 768])
    def test_planted_pairs_at_the_threshold(self, dim, eps, fallbacks):
        # Diluted so the planted pairs are rechecked pair by pair in the
        # kernel's band, not by a float64 fallback block.
        X = _planted_pairs(dim, eps)
        labels, n_pairs = _components(X, eps)
        want, want_pairs = _oracle(X, eps)
        assert np.array_equal(labels, want)
        assert n_pairs == want_pairs
        assert fallbacks == []

    def test_no_members(self):
        X, eps = _sparse_graph_case(40, 6)
        labels, n_pairs = _components(X, eps, members=np.empty(0, dtype=np.int64))
        assert labels.shape == (0,) and n_pairs == 0

    @pytest.mark.parametrize("block_size", [7, 1024])
    def test_members_of_a_row_join(self, block_size):
        # Members are some rows of a join over a row subset: the pairs
        # with an end outside the members are not edges.
        X, eps = _sparse_graph_case(2600, 3, seed=2)
        rng = np.random.default_rng(5)
        rows = np.sort(rng.choice(len(X), size=1500, replace=False))
        members = np.sort(rng.choice(rows, size=700, replace=False))
        pairs = BruteForceIndex(block_size=block_size).build(X).range_pairs(eps, rows)
        labels, n_pairs = connected_components_within(pairs, members)
        want, want_pairs = _oracle(X[members], eps)
        assert np.array_equal(labels, want)
        assert n_pairs == want_pairs > 0

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [1, 2, 9, 60])
    def test_matches_the_coo_graph(self, seed, n):
        # The CSR graph is the row-sorted pairs as given: pairs i <= j
        # (self-loops too), nodes without edges at both ends and in
        # between, over every node and over a subset of members.
        rng = np.random.default_rng(seed)
        ends = rng.integers(0, n, size=(rng.integers(0, 2 * n), 2))
        pairs = np.unique(np.sort(ends, axis=1), axis=0).reshape(-1, 2)
        rows, cols = pairs[:, 0].astype(np.int32), pairs[:, 1].astype(np.int32)
        coo = csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
        subset = np.flatnonzero(rng.random(n) < 0.6)
        for members in (np.arange(n), subset):
            _, expected = connected_components(
                coo[members][:, members], directed=False
            )
            inside = np.isin(rows, members) & np.isin(cols, members)
            labels, n_pairs = connected_components_within((rows, cols), members)
            assert np.array_equal(labels, expected)
            assert n_pairs == np.count_nonzero(inside & (rows < cols))

    def test_no_pairs(self):
        empty = np.empty(0, dtype=np.int32)
        labels, n_pairs = connected_components_within((empty, empty), np.arange(4))
        assert labels.tolist() == [0, 1, 2, 3] and n_pairs == 0
