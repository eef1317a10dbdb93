"""Edge cases the batched range queries must survive.

Every case asserts the batched path row-identical to the scalar float64
reference (``BruteForceIndex.range_query`` / ``range_count`` over the
same points, in the same metric) on the brute-force index (several block
sizes, both metrics) and the sharded index over it: empty batches,
``eps = 0``, duplicate points, batches larger than the dataset, and a
single-point dataset.
The duplicate and ``eps = 0`` fixtures use one-hot unit vectors so
every inner product is exactly representable — the comparisons are
deterministic regardless of which BLAS kernel computed them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distances import normalize_rows
from repro.index import BruteForceIndex, ShardedIndex
from repro.testing import make_blobs_on_sphere

EPS = 0.6

# Every range index and the configurations that take a different path
# through it, each made from the executor spec of the suite's worker
# pool. Block sizes of 1 and 7 put block boundaries inside every
# fixture; the default block holds each whole. The sharded entries run
# on the pool, so shards (some empty on the one-point fixture) and query
# blocks are the only change.
BACKENDS = [
    ("brute_force", lambda spec: BruteForceIndex(block_size=7)),
    ("brute_force_default_block", lambda spec: BruteForceIndex()),
    ("brute_force_block_1", lambda spec: BruteForceIndex(block_size=1)),
    (
        "brute_force_euclidean",
        lambda spec: BruteForceIndex(block_size=7, metric="euclidean"),
    ),
    ("sharded", lambda spec: ShardedIndex(n_shards=3, executor=spec)),
    (
        "sharded_small_query_block",
        lambda spec: ShardedIndex(n_shards=4, executor=spec, query_block=5),
    ),
    (
        "sharded_euclidean",
        lambda spec: ShardedIndex(metric="euclidean", n_shards=3, executor=spec),
    ),
    ("sharded_many_shards", lambda spec: ShardedIndex(n_shards=9, executor=spec)),
    (
        "sharded_euclidean_small_query_block",
        lambda spec: ShardedIndex(
            metric="euclidean", n_shards=4, executor=spec, query_block=5
        ),
    ),
]

IDS = [name for name, _ in BACKENDS]


def one_hot_duplicates(n: int, dim: int) -> np.ndarray:
    """n unit vectors drawn from the dim standard basis vectors (exact)."""
    X = np.zeros((n, dim))
    X[np.arange(n), np.arange(n) % dim] = 1.0
    return X


def assert_batch_matches_scalar(index, Q: np.ndarray, eps: float) -> None:
    reference = BruteForceIndex(metric=index.metric).build(index.points)
    rows = index.batch_range_query(Q, eps)
    assert len(rows) == Q.shape[0]
    for i, row in enumerate(rows):
        expected = np.sort(reference.range_query(Q[i], eps))
        assert row.dtype == np.int64
        assert np.array_equal(row, expected), f"row {i} at eps={eps}"
    if isinstance(index, BruteForceIndex):  # the count form is brute force's
        counts = index.batch_range_count(Q, eps)
        assert np.array_equal(counts, [reference.range_count(q, eps) for q in Q])


@pytest.fixture
def make(factory, worker_pool):
    """Make the backend under test, unbuilt; each is closed after the test."""
    made = []

    def _make():
        made.append(factory(worker_pool.executor_spec()))
        return made[-1]

    yield _make
    for index in made:
        index.close()


@pytest.mark.parametrize("name,factory", BACKENDS, ids=IDS)
class TestBatchEdgeCases:
    def test_empty_batch(self, name, make):
        X, _ = make_blobs_on_sphere(10, 2, 8, seed=0)
        index = make().build(X)
        assert index.batch_range_query(np.empty((0, 8)), EPS) == []
        if isinstance(index, BruteForceIndex):
            assert index.batch_range_count(np.empty((0, 8)), EPS).size == 0

    def test_eps_zero_returns_nothing(self, name, make):
        # Strict d < 0 can never hit — not even a query equal to an
        # indexed point. One-hot data keeps every distance exact.
        X = one_hot_duplicates(30, 8)
        index = make().build(X)
        rows = index.batch_range_query(X, 0.0)
        assert all(row.size == 0 for row in rows)
        assert_batch_matches_scalar(index, X, 0.0)

    def test_eps_zero_on_random_data(self, name, make):
        X, _ = make_blobs_on_sphere(25, 3, 12, spread=0.2, seed=4)
        index = make().build(X)
        assert_batch_matches_scalar(index, X, 0.0)

    def test_duplicate_points(self, name, make):
        # 40 points, 8 distinct values: every hit set has multiplicity.
        X = one_hot_duplicates(40, 8)
        index = make().build(X)
        for eps in (0.5, 1.0):
            assert_batch_matches_scalar(index, X, eps)

    def test_all_points_identical(self, name, make):
        X = normalize_rows(np.ones((30, 5)))
        index = make().build(X)
        assert_batch_matches_scalar(index, X, 0.4)

    def test_batch_larger_than_dataset(self, name, make):
        X, _ = make_blobs_on_sphere(8, 2, 8, spread=0.2, seed=7)  # 16 points
        index = make().build(X)
        Q = np.vstack([X, X, X])  # 48 queries over 16 points
        assert_batch_matches_scalar(index, Q, EPS)

    def test_single_point(self, name, make):
        X = normalize_rows(np.ones((1, 6)))
        index = make().build(X)
        assert_batch_matches_scalar(index, X, EPS)
        (row,) = index.batch_range_query(X[0], EPS)
        assert np.array_equal(row, [0])

    def test_queries_not_in_dataset(self, name, make):
        X, _ = make_blobs_on_sphere(20, 2, 10, spread=0.2, seed=3)
        Q, _ = make_blobs_on_sphere(15, 2, 10, spread=0.3, seed=8)
        index = make().build(X)
        assert_batch_matches_scalar(index, Q, EPS)
