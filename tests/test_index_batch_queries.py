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
from repro.index import BruteForceIndex, GridIndex, ShardedIndex, brute_force
from repro.index.base import pair_counts
from repro.remote.pool import RemoteExecutor

from repro.testing import make_blobs_on_sphere

EPS = 0.6

# (name, factory) for every NeighborIndex and the configurations that
# take a different path through it, each made from the executor spec of
# the suite's worker pool (the sharded ones run on it); the grid's
# approximate counts are tested separately because it fixes eps at
# construction time.
BACKENDS = [
    ("brute_force", lambda spec: BruteForceIndex()),
    ("brute_force_small_blocks", lambda spec: BruteForceIndex(block_size=7)),
    ("brute_force_block_1", lambda spec: BruteForceIndex(block_size=1)),
    ("brute_force_euclidean", lambda spec: BruteForceIndex(metric="euclidean")),
    ("sharded", lambda spec: ShardedIndex(n_shards=3, executor=spec)),
    (
        "sharded_small_query_block",
        lambda spec: ShardedIndex(n_shards=5, executor=spec, query_block=16),
    ),
    ("sharded_many_shards", lambda spec: ShardedIndex(n_shards=7, executor=spec)),
    (
        "sharded_euclidean",
        lambda spec: ShardedIndex(metric="euclidean", n_shards=3, executor=spec),
    ),
]


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    rng = np.random.default_rng(5)
    return normalize_rows(rng.normal(size=(80, 12)))


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


def scalar_reference(index, data: np.ndarray) -> BruteForceIndex:
    """The float64 scalar reference over ``data`` in ``index``'s metric."""
    return BruteForceIndex(metric=index.metric).build(data)


@pytest.mark.parametrize("name,factory", BACKENDS, ids=[n for n, _ in BACKENDS])
class TestBatchAgainstScalar:
    def test_batch_range_query_rows_match_scalar(self, name, make, data):
        index = make().build(data)
        reference = scalar_reference(index, data)
        results = index.batch_range_query(data, EPS)
        assert len(results) == data.shape[0]
        for i, row in enumerate(results):
            expected = reference.range_query(data[i], EPS)
            assert np.array_equal(np.sort(row), np.sort(expected)), i

    def test_join_counts_match_scalar(self, name, make, data):
        # The sampling hosts' core test: pair_counts of a join over a row
        # subset are those rows' scalar counts.
        index = make().build(data)
        reference = scalar_reference(index, data)
        rows = np.arange(0, data.shape[0], 2)
        counts = pair_counts(index.range_pairs(EPS, rows=rows), data.shape[0])
        assert counts.dtype == np.int64
        expected = [reference.range_count(data[i], EPS) for i in rows]
        assert np.array_equal(counts[rows], expected)

    def test_empty_batch(self, name, make, data):
        index = make().build(data)
        assert index.batch_range_query(np.empty((0, data.shape[1])), EPS) == []

    def test_single_row_is_one_query(self, name, make, data):
        index = make().build(data)
        results = index.batch_range_query(data[0], EPS)
        assert len(results) == 1
        expected = scalar_reference(index, data).range_query(data[0], EPS)
        assert np.array_equal(np.sort(results[0]), np.sort(expected))

    def test_self_is_included(self, name, make, data):
        index = make().build(data)
        for i, row in enumerate(index.batch_range_query(data[:10], EPS)):
            assert i in row, "a point is its own neighbor (d = 0 < eps)"

    def test_unbuilt_index_raises(self, name, make, data):
        with pytest.raises(NotFittedError):
            make().batch_range_query(data[:3], EPS)


#: The brute-force backends: ``batch_range_count`` is theirs alone (the
#: exact cardinality estimator's count), not part of the index contract.
BRUTE_FORCE_BACKENDS = [b for b in BACKENDS if b[0].startswith("brute_force")]


@pytest.mark.parametrize(
    "name,factory", BRUTE_FORCE_BACKENDS, ids=[n for n, _ in BRUTE_FORCE_BACKENDS]
)
class TestBruteForceCounts:
    def test_batch_range_count_matches_scalar(self, name, make, data):
        index = make().build(data)
        reference = scalar_reference(index, data)
        counts = index.batch_range_count(data[:33], EPS)
        assert counts.dtype == np.int64
        expected = [reference.range_count(data[i], EPS) for i in range(33)]
        assert np.array_equal(counts, expected)


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


@pytest.mark.parametrize(
    "rows,cols,expected",
    [
        # (0, 1) counts toward both points; each diagonal pair once.
        ([0, 0, 1, 2], [0, 1, 3, 2], [2, 2, 1, 1]),
        # No diagonal pair (the kernel found d(P, P) >= eps): P does not
        # count itself.
        ([0, 1], [1, 2], [1, 2, 1, 0]),
        ([], [], [0, 0, 0, 0]),
    ],
    ids=["mirror_and_diagonal", "no_diagonal", "empty"],
)
def test_pair_counts_mirror_rule(rows, cols, expected):
    pairs = (np.array(rows, dtype=np.int32), np.array(cols, dtype=np.int32))
    counts = pair_counts(pairs, 4)
    assert counts.dtype == np.int64
    assert counts.tolist() == expected


class TestRowIdForms:
    """A fit queries its own rows by id; the answers are those of the rows."""

    @pytest.mark.parametrize("name,factory", BACKENDS, ids=[n for n, _ in BACKENDS])
    def test_rows_match_scalar(self, name, make, data):
        index = make().build(data)
        reference = scalar_reference(index, data)
        # Out of order, with a repeat: a row set, not a prefix.
        ids = np.concatenate([np.arange(data.shape[0])[::-3], [4, 4]])
        rows = index.batch_range_query_rows(ids, EPS)
        assert len(rows) == ids.size
        for i, row in zip(ids, rows):
            expected = reference.range_query(data[i], EPS)
            assert np.array_equal(np.sort(row), expected), i
        assert index.batch_range_query_rows(np.empty(0, dtype=np.int64), EPS) == []

    @pytest.mark.parametrize("name,factory", BACKENDS, ids=[n for n, _ in BACKENDS])
    def test_range_pairs_match_scalar(self, name, make, data):
        index = make().build(data)
        reference = scalar_reference(index, data)
        rows, cols = index.range_pairs(EPS)
        assert rows.dtype == cols.dtype == np.int32
        expected = [
            (i, j)
            for i in range(data.shape[0])
            for j in reference.range_query(data[i], EPS)
            if j >= i
        ]
        # Every pair i <= j once (the diagonal too), in row-major order.
        assert list(zip(rows.tolist(), cols.tolist())) == expected

    @pytest.mark.parametrize("name,factory", BACKENDS, ids=[n for n, _ in BACKENDS])
    @pytest.mark.parametrize(
        "plan", ["empty", "single", "every_third", "two_thirds", "all"]
    )
    @pytest.mark.parametrize("duplicates", [False, True], ids=["unique", "dup"])
    def test_range_pairs_over_rows_match_scalar(
        self, name, make, data, plan, duplicates
    ):
        if duplicates:  # copies of rows both inside and outside the plan
            data = np.vstack([data[:50], data[10:40]])
        n = data.shape[0]
        rows = {
            "empty": np.empty(0, dtype=np.int64),
            "single": np.array([n // 2]),
            "every_third": np.arange(0, n, 3),
            "two_thirds": np.sort(
                np.random.default_rng(1).choice(n, size=2 * n // 3, replace=False)
            ),
            "all": np.arange(n),
        }[plan]
        index = make().build(data)
        reference = scalar_reference(index, data)
        pair_rows, cols = index.range_pairs(EPS, rows=rows)
        assert pair_rows.dtype == cols.dtype == np.int32
        planned = set(rows.tolist())
        expected = [
            (i, j)
            for i in rows.tolist()
            for j in reference.range_query(data[i], EPS).tolist()
            if j not in planned or j >= i
        ]
        got = list(zip(pair_rows.tolist(), cols.tolist()))
        # Each pair once, grouped by its planned row in ascending order.
        assert sorted(got) == expected
        assert np.all(np.diff(pair_rows) >= 0)
        if plan == "all":
            assert got == expected  # the self-join, in row-major order
            assert got == list(zip(*(a.tolist() for a in index.range_pairs(EPS))))

    @pytest.mark.parametrize("name,factory", BACKENDS, ids=[n for n, _ in BACKENDS])
    @pytest.mark.parametrize("rows", [[3, 2], [2, 2], [-1, 4], [79, 80]], ids=str)
    def test_range_pairs_reject_rows_that_are_not_ascending_ids(
        self, name, make, data, rows
    ):
        index = make().build(data)
        with pytest.raises(InvalidParameterError):
            index.range_pairs(EPS, rows=np.array(rows))

    def test_range_pairs_over_rows_compute_each_pair_once(self, data, monkeypatch):
        # Plan rows first, then the rest: block [s, e) of the plan against
        # positions s.. of that order; the rest x rest block never runs.
        shapes = []
        batch = BruteForceIndex.batch_range_query

        def spy(self, Q, eps):
            shapes.append((len(Q), self.n_points))
            return batch(self, Q, eps)

        monkeypatch.setattr(BruteForceIndex, "batch_range_query", spy)
        index = BruteForceIndex(block_size=16).build(data)
        index.range_pairs(EPS, rows=np.arange(1, 80, 2))  # 40 rows
        assert shapes == [(16, 80), (16, 64), (8, 48)]
        # One block meets every point either way: no reordered copy.
        shapes.clear()
        index.range_pairs(EPS, rows=np.arange(3, 80, 5))  # 16 rows
        assert shapes == [(16, 80)]

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_range_pairs_compute_the_upper_triangle(self, metric, data, monkeypatch):
        # Row block [s, e) is one batched range query against points[s:].
        shapes = []
        batch = BruteForceIndex.batch_range_query

        def spy(self, Q, eps):
            shapes.append((len(Q), self.n_points))
            return batch(self, Q, eps)

        monkeypatch.setattr(BruteForceIndex, "batch_range_query", spy)
        BruteForceIndex(block_size=16, metric=metric).build(data).range_pairs(EPS)
        assert shapes == [(16, 80), (16, 64), (16, 48), (16, 32), (16, 16)]

    @pytest.mark.parametrize(
        "rows", [None, np.arange(1, 80, 3)], ids=["self_join", "subset"]
    )
    def test_sharded_range_pairs_run_in_one_round(
        self, data, worker_pool, monkeypatch, rows
    ):
        # 80 rows in shards of 20 and rounds of 20 rows: the join is still
        # one executor round, one pairs call per live shard.
        calls = []
        run = RemoteExecutor.run

        def spy(self, op, shard_calls):
            calls.append((op, [shard_id for shard_id, _, _ in shard_calls]))
            return run(self, op, shard_calls)

        monkeypatch.setattr(RemoteExecutor, "run", spy)
        spec = worker_pool.executor_spec()
        index = ShardedIndex(n_shards=4, executor=spec, query_block=20).build(data)
        try:
            index.range_pairs(EPS, rows=rows)
        finally:
            index.close()
        assert calls == [("pairs", [0, 1, 2, 3])]

    def test_brute_force_gathers_one_block_at_a_time(self, data, monkeypatch):
        # A plan of every row must not copy the whole point matrix.
        sizes = []
        batch = BruteForceIndex.batch_range_query

        def spy(self, Q, eps):
            sizes.append(len(Q))
            return batch(self, Q, eps)

        monkeypatch.setattr(BruteForceIndex, "batch_range_query", spy)
        BruteForceIndex(block_size=16).build(data).batch_range_query_rows(
            np.arange(data.shape[0]), EPS
        )
        assert sizes == [16] * 5
