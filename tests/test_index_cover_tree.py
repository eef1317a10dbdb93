"""Tests for the cover tree: exactness against brute force + invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import normalize_rows
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.index import BruteForceIndex, CoverTree


def random_unit(n, dim, seed):
    rng = np.random.default_rng(seed)
    return normalize_rows(rng.normal(size=(n, dim)))


@pytest.fixture(scope="module", params=[1.3, 2.0, 4.0])
def built_tree(request):
    X = random_unit(120, 10, seed=42)
    return CoverTree(base=request.param).build(X), X


class TestConstruction:
    def test_invalid_base(self):
        for bad in (1.0, 0.5, -2.0):
            with pytest.raises(InvalidParameterError):
                CoverTree(base=bad)

    def test_node_per_point(self, built_tree):
        tree, X = built_tree
        assert tree.n_nodes == X.shape[0]

    def test_invariants_hold(self, built_tree):
        tree, _ = built_tree
        tree.validate_invariants()

    def test_duplicate_points_supported(self):
        X = normalize_rows(np.ones((6, 4)))
        tree = CoverTree().build(X)
        tree.validate_invariants()
        hits = tree.range_query(X[0], eps=0.1)
        assert hits.size == 6

    def test_unbuilt_raises(self):
        with pytest.raises(NotFittedError):
            CoverTree().range_query(np.zeros(3), 0.5)


class TestRangeQueryExactness:
    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.5, 0.9, 1.5])
    def test_equals_brute_force(self, built_tree, eps):
        tree, X = built_tree
        brute = BruteForceIndex().build(X)
        for qi in range(0, X.shape[0], 7):
            expected = set(brute.range_query(X[qi], eps).tolist())
            got = set(tree.range_query(X[qi], eps).tolist())
            assert got == expected

    def test_external_query_point(self, built_tree):
        tree, X = built_tree
        rng = np.random.default_rng(0)
        q = normalize_rows(rng.normal(size=X.shape[1]))
        brute = BruteForceIndex().build(X)
        assert set(tree.range_query(q, 0.6).tolist()) == set(
            brute.range_query(q, 0.6).tolist()
        )

    def test_results_sorted(self, built_tree):
        tree, X = built_tree
        hits = tree.range_query(X[0], 0.8)
        assert np.all(np.diff(hits) > 0)

    @given(st.integers(0, 10_000), st.floats(0.05, 1.8))
    @settings(max_examples=30, deadline=None)
    def test_property_equals_brute_force(self, seed, eps):
        X = random_unit(40, 6, seed=seed % 1000)
        tree = CoverTree(base=2.0).build(X)
        brute = BruteForceIndex().build(X)
        q = X[seed % 40]
        assert set(tree.range_query(q, eps).tolist()) == set(
            brute.range_query(q, eps).tolist()
        )


class TestSmallBases:
    """The trade-off sweep uses bases down to 1.1; ensure they work."""

    def test_base_1_1_correct(self):
        X = random_unit(50, 8, seed=9)
        tree = CoverTree(base=1.1).build(X)
        brute = BruteForceIndex().build(X)
        assert set(tree.range_query(X[5], 0.5).tolist()) == set(
            brute.range_query(X[5], 0.5).tolist()
        )

    def test_base_5_correct(self):
        X = random_unit(50, 8, seed=10)
        tree = CoverTree(base=5.0).build(X)
        brute = BruteForceIndex().build(X)
        assert set(tree.range_query(X[5], 0.5).tolist()) == set(
            brute.range_query(X[5], 0.5).tolist()
        )
