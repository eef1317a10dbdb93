"""Property tests for the batched query API of the range-query indexes.

The contract: every batched query agrees row-for-row with the scalar
float64 reference (``BruteForceIndex.range_query`` / ``range_count``
over the same points, in the same metric), tolerates empty batches, and
keeps the paper's neighborhood semantics (strict ``d < eps``; a query
equal to an indexed point returns that point).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distances import normalize_rows
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.index import BruteForceIndex, GridIndex, NeighborhoodCache, ShardedIndex

from repro.testing import make_blobs_on_sphere

EPS = 0.6

# (name, factory) for every NeighborIndex and the configurations that
# take a different path through it; the grid's approximate counts are
# tested separately because it fixes eps at construction time.
BACKENDS = [
    ("brute_force", lambda: BruteForceIndex()),
    ("brute_force_small_blocks", lambda: BruteForceIndex(block_size=7)),
    ("brute_force_block_1", lambda: BruteForceIndex(block_size=1)),
    ("brute_force_euclidean", lambda: BruteForceIndex(metric="euclidean")),
    ("sharded", lambda: ShardedIndex(n_shards=3)),
    ("sharded_small_query_block", lambda: ShardedIndex(n_shards=5, query_block=16)),
    ("sharded_many_shards", lambda: ShardedIndex(n_shards=7)),
    (
        "sharded_euclidean",
        lambda: ShardedIndex(metric="euclidean", n_shards=3),
    ),
]


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    rng = np.random.default_rng(5)
    return normalize_rows(rng.normal(size=(80, 12)))


def scalar_reference(index, data: np.ndarray) -> BruteForceIndex:
    """The float64 scalar reference over ``data`` in ``index``'s metric."""
    return BruteForceIndex(metric=index.metric).build(data)


@pytest.mark.parametrize("name,factory", BACKENDS, ids=[n for n, _ in BACKENDS])
class TestBatchAgainstScalar:
    def test_batch_range_query_rows_match_scalar(self, name, factory, data):
        index = factory().build(data)
        reference = scalar_reference(index, data)
        results = index.batch_range_query(data, EPS)
        assert len(results) == data.shape[0]
        for i, row in enumerate(results):
            expected = reference.range_query(data[i], EPS)
            assert np.array_equal(np.sort(row), np.sort(expected)), i

    def test_batch_range_count_matches_scalar(self, name, factory, data):
        index = factory().build(data)
        reference = scalar_reference(index, data)
        counts = index.batch_range_count(data[:33], EPS)
        assert counts.dtype == np.int64
        expected = [reference.range_count(data[i], EPS) for i in range(33)]
        assert np.array_equal(counts, expected)

    def test_empty_batch(self, name, factory, data):
        index = factory().build(data)
        assert index.batch_range_query(np.empty((0, data.shape[1])), EPS) == []
        assert index.batch_range_count(np.empty((0, data.shape[1])), EPS).size == 0

    def test_single_row_is_one_query(self, name, factory, data):
        index = factory().build(data)
        results = index.batch_range_query(data[0], EPS)
        assert len(results) == 1
        expected = scalar_reference(index, data).range_query(data[0], EPS)
        assert np.array_equal(np.sort(results[0]), np.sort(expected))

    def test_self_is_included(self, name, factory, data):
        index = factory().build(data)
        for i, row in enumerate(index.batch_range_query(data[:10], EPS)):
            assert i in row, "a point is its own neighbor (d = 0 < eps)"

    def test_unbuilt_index_raises(self, name, factory, data):
        with pytest.raises(NotFittedError):
            factory().batch_range_query(data[:3], EPS)


class TestEpsBoundarySemantics:
    """The paper's N = {Q | d(P, Q) < eps} is strict."""

    def test_point_at_exactly_eps_excluded(self):
        # q.x = 0.5 is exact in floating point, so d = 1 - 0.5 = 0.5 == eps.
        X = np.array(
            [
                [1.0, 0.0],
                [0.5, np.sqrt(3.0) / 2.0],  # cosine distance exactly 0.5 from X[0]
                [0.0, 1.0],
            ]
        )
        index = BruteForceIndex().build(X)
        (row,) = index.batch_range_query(X[0], eps=0.5)
        assert 0 in row  # self, d = 0
        assert 1 not in row  # d == eps is outside the strict threshold
        (count,) = index.batch_range_count(X[0], eps=0.5)
        assert count == row.size

    def test_just_inside_included(self):
        X = np.array([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
        index = BruteForceIndex().build(X)
        (row,) = index.batch_range_query(X[0], eps=np.nextafter(0.5, 1.0))
        assert 1 in row


class TestGridBatchedQueries:
    def test_batch_approx_range_count_matches_single_rows(self):
        X, _ = make_blobs_on_sphere(30, 3, 16, spread=0.15, seed=2)
        grid = GridIndex(EPS, rho=1.0).build(X)
        counts = grid.batch_approx_range_count(X)
        expected = [grid.batch_approx_range_count(X[i])[0] for i in range(len(X))]
        assert np.array_equal(counts, expected)

    def test_empty_batch(self):
        X, _ = make_blobs_on_sphere(10, 2, 8, seed=0)
        grid = GridIndex(EPS).build(X)
        assert grid.batch_approx_range_count(np.empty((0, 8))).size == 0


class TestNeighborhoodCache:
    def test_fetch_matches_direct_query(self, data):
        index = BruteForceIndex().build(data)
        cache = NeighborhoodCache(data, EPS)
        cache.plan(np.arange(data.shape[0]))
        for p in range(data.shape[0]):
            assert np.array_equal(cache.fetch(p), index.range_query(data[p], EPS))

    def test_each_point_computed_at_most_once(self, data):
        cache = NeighborhoodCache(data, EPS, block_size=16)
        cache.plan(np.arange(data.shape[0]))
        for p in range(data.shape[0]):
            cache.fetch(p)
        assert cache.n_computed == data.shape[0]
        # Every fetch that didn't trigger a block fill was served from cache.
        assert cache.n_cache_hits == cache.n_fetches - cache.n_blocks
        assert cache.n_fetches == data.shape[0]

    def test_unplanned_points_are_never_computed(self, data):
        cache = NeighborhoodCache(data, EPS, block_size=8)
        cache.plan([0, 1, 2, 3])
        cache.fetch(0)
        assert cache.n_computed == 4  # the demanded point + its planned block
        assert not cache.is_cached(50)

    def test_plan_is_a_hint_not_speculation(self, data):
        cache = NeighborhoodCache(data, EPS, block_size=4)
        cache.plan(np.arange(data.shape[0]))
        cache.fetch(10)
        # Only one block was computed: the demanded point plus the next
        # planned points, nothing beyond the block size.
        assert cache.n_blocks == 1
        assert cache.n_computed == 4

    def test_duplicate_plan_entries_not_recomputed(self, data):
        cache = NeighborhoodCache(data, EPS, block_size=64)
        cache.plan([5, 5, 5, 6])
        cache.fetch(5)
        assert cache.n_computed == 2  # just {5, 6}; the repeats deduplicate

    def test_block_size_one_degenerates_to_per_point(self, data):
        cache = NeighborhoodCache(data, EPS, block_size=1)
        cache.plan(np.arange(data.shape[0]))
        cache.fetch(3)
        cache.fetch(4)
        assert cache.n_blocks == 2
        assert cache.n_computed == 2

    def test_fetch_releases_served_neighborhoods(self, data):
        index = BruteForceIndex().build(data)
        cache = NeighborhoodCache(data, EPS, block_size=8)
        cache.plan(np.arange(data.shape[0]))
        first = cache.fetch(0)
        assert not cache.is_cached(0)  # served -> released
        assert cache.is_cached(1)  # prefetched, not yet served
        # A re-fetch transparently recomputes the same answer.
        again = cache.fetch(0)
        assert np.array_equal(first, again)
        assert np.array_equal(first, index.range_query(data[0], EPS))

    def test_evicted_points_never_rejoin_later_batches(self, data):
        """Regression: a frontier jump ahead of the plan pointer must not
        re-batch the served-and-released point when the pointer reaches it."""
        cache = NeighborhoodCache(data, EPS, block_size=3)
        cache.plan(np.arange(10))
        cache.fetch(5)  # out-of-plan-order jump, then drain the plan
        for p in range(10):
            if p != 5:
                cache.fetch(p)
        assert cache.n_computed == 10

    @pytest.mark.parametrize("block_size", [0, -3, 2.5, True, "8", None])
    def test_invalid_block_size_rejected(self, data, block_size):
        # Checked where it is set: 2.5 would otherwise run 3-row blocks.
        with pytest.raises(InvalidParameterError, match="block_size"):
            NeighborhoodCache(data, EPS, block_size=block_size)
