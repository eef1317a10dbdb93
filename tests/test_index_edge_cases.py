"""Edge cases the batched range queries must survive.

Every case asserts the batched path row-identical to the scalar path on
the brute-force index (several block sizes, both metrics), the sharded
index over it, and the grid: empty batches, ``eps = 0``, duplicate
points, batches larger than the dataset, and a single-point dataset.
The duplicate and ``eps = 0`` fixtures use one-hot unit vectors so
every inner product is exactly representable — the comparisons are
deterministic regardless of which BLAS kernel computed them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distances import normalize_rows
from repro.exceptions import InvalidParameterError
from repro.index import BruteForceIndex, GridIndex, ShardedIndex
from repro.testing import make_blobs_on_sphere

EPS = 0.6

# Backends whose batch_range_query takes (Q, eps); the grid fixes eps at
# construction and is exercised separately. Block sizes of 1 and 7 put
# block boundaries inside every fixture; the default block holds each
# whole. The sharded entries run the serial executor, so shards (some
# empty on the one-point fixture) and query blocks are the only change.
BACKENDS = [
    ("brute_force", lambda: BruteForceIndex(block_size=7)),
    ("brute_force_default_block", lambda: BruteForceIndex()),
    ("brute_force_block_1", lambda: BruteForceIndex(block_size=1)),
    (
        "brute_force_euclidean",
        lambda: BruteForceIndex(block_size=7, metric="euclidean"),
    ),
    ("sharded", lambda: ShardedIndex(n_shards=3)),
    ("sharded_small_query_block", lambda: ShardedIndex(n_shards=4, query_block=5)),
    (
        "sharded_euclidean",
        lambda: ShardedIndex(inner_kwargs={"metric": "euclidean"}, n_shards=3),
    ),
]

IDS = [name for name, _ in BACKENDS]


def one_hot_duplicates(n: int, dim: int) -> np.ndarray:
    """n unit vectors drawn from the dim standard basis vectors (exact)."""
    X = np.zeros((n, dim))
    X[np.arange(n), np.arange(n) % dim] = 1.0
    return X


def assert_batch_matches_scalar(index, Q: np.ndarray, eps: float) -> None:
    rows = index.batch_range_query(Q, eps)
    assert len(rows) == Q.shape[0]
    for i, row in enumerate(rows):
        expected = np.sort(index.range_query(Q[i], eps))
        assert row.dtype == np.int64
        assert np.array_equal(row, expected), f"row {i} at eps={eps}"
    counts = index.batch_range_count(Q, eps)
    assert np.array_equal(counts, [index.range_count(q, eps) for q in Q])


@pytest.mark.parametrize("name,factory", BACKENDS, ids=IDS)
class TestBatchEdgeCases:
    def test_empty_batch(self, name, factory):
        X, _ = make_blobs_on_sphere(10, 2, 8, seed=0)
        index = factory().build(X)
        assert index.batch_range_query(np.empty((0, 8)), EPS) == []
        assert index.batch_range_count(np.empty((0, 8)), EPS).size == 0

    def test_eps_zero_returns_nothing(self, name, factory):
        # Strict d < 0 can never hit — not even a query equal to an
        # indexed point. One-hot data keeps every distance exact.
        X = one_hot_duplicates(30, 8)
        index = factory().build(X)
        rows = index.batch_range_query(X, 0.0)
        assert all(row.size == 0 for row in rows)
        assert_batch_matches_scalar(index, X, 0.0)

    def test_eps_zero_on_random_data(self, name, factory):
        X, _ = make_blobs_on_sphere(25, 3, 12, spread=0.2, seed=4)
        index = factory().build(X)
        assert_batch_matches_scalar(index, X, 0.0)

    def test_duplicate_points(self, name, factory):
        # 40 points, 8 distinct values: every hit set has multiplicity.
        X = one_hot_duplicates(40, 8)
        index = factory().build(X)
        for eps in (0.5, 1.0):
            assert_batch_matches_scalar(index, X, eps)

    def test_all_points_identical(self, name, factory):
        X = normalize_rows(np.ones((30, 5)))
        index = factory().build(X)
        assert_batch_matches_scalar(index, X, 0.4)

    def test_batch_larger_than_dataset(self, name, factory):
        X, _ = make_blobs_on_sphere(8, 2, 8, spread=0.2, seed=7)  # 16 points
        index = factory().build(X)
        Q = np.vstack([X, X, X])  # 48 queries over 16 points
        assert_batch_matches_scalar(index, Q, EPS)

    def test_single_point(self, name, factory):
        X = normalize_rows(np.ones((1, 6)))
        index = factory().build(X)
        assert_batch_matches_scalar(index, X, EPS)
        (row,) = index.batch_range_query(X[0], EPS)
        assert np.array_equal(row, [0])

    def test_queries_not_in_dataset(self, name, factory):
        X, _ = make_blobs_on_sphere(20, 2, 10, spread=0.2, seed=3)
        Q, _ = make_blobs_on_sphere(15, 2, 10, spread=0.3, seed=8)
        index = factory().build(X)
        assert_batch_matches_scalar(index, Q, EPS)


class TestGridEdgeCases:
    """The grid fixes eps at build; its batch API mirrors the scalar one."""

    def test_eps_zero_rejected_at_construction(self):
        with pytest.raises(InvalidParameterError):
            GridIndex(0.0)

    def test_duplicate_points(self):
        X = one_hot_duplicates(40, 8)
        grid = GridIndex(0.5, rho=1.0).build(X)
        rows = grid.batch_range_query(X)
        for i, row in enumerate(rows):
            assert np.array_equal(row, grid.exact_range_query(X[i])), i

    def test_batch_larger_than_dataset(self):
        X, _ = make_blobs_on_sphere(8, 2, 8, spread=0.2, seed=7)
        grid = GridIndex(EPS).build(X)
        Q = np.vstack([X, X, X])
        rows = grid.batch_range_query(Q)
        for i, row in enumerate(rows):
            assert np.array_equal(row, grid.exact_range_query(Q[i])), i

    def test_single_point(self):
        X = normalize_rows(np.ones((1, 6)))
        grid = GridIndex(EPS).build(X)
        (row,) = grid.batch_range_query(X)
        assert np.array_equal(row, [0])
