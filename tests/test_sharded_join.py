"""The sharded join: one executor round, the local join's pairs.

:meth:`ShardedIndex.range_pairs` sends one ``pairs`` request per live
shard, in one :meth:`RemoteExecutor.run` call. Each worker runs the join
loop of :meth:`BruteForceIndex.range_pairs` over its shard's columns
(:meth:`BruteForceIndex.column_join`) and replies with CSR pairs that
the parent concatenates per row. Contracts under test:

* the self-join equals one index's arrays, order included, and a join
  over a row subset equals its pair set, grouped by ascending row, with
  each row's columns ascending; in both metrics, with duplicated
  points, 1–5 shards (more shards than points too) on 1 or 2 workers,
  and rows that are empty, all, random or inside one shard;
* the shard loop alone, in process, with kernel blocks of a few rows:
  the shards' replies merge to the same pairs;
* a warm fit is one executor round; bad ``pairs`` rows are a protocol
  error that is not retried; shards are dealt to workers in
  boustrophedon order;
* a join is one call per shard, so the executor's ``timeout_s`` bounds a
  shard's whole join: one that runs longer fails typed, and each retry
  repeats it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.remote.pool as pool_mod
from repro.clustering import DBSCAN
from repro.distances import normalize_rows
from repro.engine_config import ExecutionConfig
from repro.exceptions import RemoteExecutorError, RetryExhaustedError
from repro.index import BruteForceIndex, NeighborIndex, ShardedIndex, ShardingConfig
from repro.index.sharded import (
    ExecutorSpec,
    _op_pairs,
    concat_shard_rows,
    shard_offsets,
)
from repro.remote.pool import RemoteExecutor, _WorkerClient

MAX_EXAMPLES = 25

ROW_PLANS = ("empty", "all", "random", "one_shard")


def points(seed: int, n: int, dim: int, n_dup: int, metric: str) -> np.ndarray:
    """``n`` points, the last ``n_dup`` of them copies of earlier ones."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim))
    if metric == "cosine":
        X = normalize_rows(X)
    n_dup = min(n_dup, n - 1)
    if n_dup:
        X[n - n_dup :] = X[rng.integers(0, n - n_dup, size=n_dup)]
    return rng.permutation(X)


def plan_rows(plan: str, n: int, n_shards: int, seed: int) -> np.ndarray | None:
    rng = np.random.default_rng(seed)
    if plan == "empty":
        return np.empty(0, dtype=np.int64)
    if plan == "all":
        return None
    if plan == "random":
        return np.flatnonzero(rng.random(n) < 0.5)
    offsets = shard_offsets(n, n_shards)
    shard = int(rng.integers(0, n_shards))
    return np.arange(offsets[shard], offsets[shard + 1])


def assert_join_equal(got, expected, rows) -> None:
    got_rows, got_cols = got
    assert got_rows.dtype == got_cols.dtype == np.int32
    if rows is None:
        # The self-join: the same arrays, order included.
        assert np.array_equal(got_rows, expected[0])
        assert np.array_equal(got_cols, expected[1])
        return
    # A subset: the same pairs, by ascending row, each row's columns
    # ascending.
    key = got_rows.astype(np.int64) * (1 << 32) + got_cols
    assert np.all(np.diff(key) > 0)
    assert sorted(zip(got_rows.tolist(), got_cols.tolist())) == sorted(
        zip(expected[0].tolist(), expected[1].tolist())
    )


join_cases = given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 40),
    n_dup=st.integers(0, 8),
    n_shards=st.integers(1, 5),
    metric=st.sampled_from(["cosine", "euclidean"]),
    plan=st.sampled_from(ROW_PLANS),
)


class TestShardLoopInProcess:
    """The workers' loop, run here over every shard with tiny kernel blocks."""

    @join_cases
    @settings(max_examples=4 * MAX_EXAMPLES, deadline=None)
    def test_shard_replies_merge_to_the_local_join(
        self, seed, n, n_dup, n_shards, metric, plan
    ):
        block_size = seed % 7 + 1
        eps = 0.9 if metric == "cosine" else 1.2
        X = points(seed, n, 4, n_dup, metric)
        rows = plan_rows(plan, n, n_shards, seed)
        offsets = shard_offsets(n, n_shards)
        replies = []
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            if hi > lo:
                shard = BruteForceIndex(block_size, metric).build(X[lo:hi])
                replies.append(_op_pairs(shard, X, eps, rows, int(lo)))
        ids = np.arange(n) if rows is None else rows
        indptr, cols = concat_shard_rows(replies, ids.size)
        got = np.repeat(ids.astype(np.int32), np.diff(indptr)), cols
        single = BruteForceIndex(block_size, metric).build(X)
        expected = single.range_pairs(eps, rows)
        assert_join_equal(got, expected, rows)
        # The pairs a full-row query of every planned row derives.
        derived = NeighborIndex.range_pairs(single, eps, rows)
        assert_join_equal(got, derived, np.arange(n) if rows is None else rows)


class TestShardedJoinMatchesOneIndex:
    @join_cases
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_range_pairs(
        self, worker_pool, one_worker_pool, seed, n, n_dup, n_shards, metric, plan
    ):
        pool = (one_worker_pool, worker_pool)[seed % 2]
        eps = 0.9 if metric == "cosine" else 1.2
        X = points(seed, n, 4, n_dup, metric)
        rows = plan_rows(plan, n, n_shards, seed)
        expected = BruteForceIndex(metric=metric).build(X).range_pairs(eps, rows)
        index = ShardedIndex(metric, n_shards, pool.executor_spec()).build(X)
        with index:
            assert_join_equal(index.range_pairs(eps, rows), expected, rows)

    @pytest.mark.parametrize("plan", ["all", "random"])
    def test_joins_of_many_kernel_blocks(self, worker_pool, plan):
        # 2,600 rows: each worker's loop runs several 1,024-row blocks,
        # and a subset takes its planned columns first.
        X = points(5, 2600, 6, 40, "cosine")
        rows = plan_rows(plan, len(X), 3, 5)
        expected = BruteForceIndex().build(X).range_pairs(0.6, rows)
        spec = worker_pool.executor_spec()
        with ShardedIndex(n_shards=3, executor=spec).build(X) as index:
            assert_join_equal(index.range_pairs(0.6, rows), expected, rows)


def test_warm_fit_is_one_executor_round(worker_pool, monkeypatch):
    X = points(3, 120, 8, 10, "cosine")
    execution = ExecutionConfig(
        sharding=ShardingConfig(n_shards=4, executor=worker_pool.executor_spec())
    )
    DBSCAN(eps=0.9, tau=3, execution=execution).fit(X)  # warms the shards
    ops = []
    run = RemoteExecutor.run

    def spy(self, op, calls):
        ops.append((op, len(calls)))
        return run(self, op, calls)

    monkeypatch.setattr(RemoteExecutor, "run", spy)
    warm = DBSCAN(eps=0.9, tau=3, execution=execution).fit(X)
    assert ops == [("pairs", 4)]
    assert warm.stats["shard_inner_builds"] == 0
    assert np.array_equal(warm.labels, DBSCAN(eps=0.9, tau=3).fit(X).labels)


@pytest.mark.parametrize(
    "arrays",
    [
        {"rows": np.array([3, 2], dtype=np.int64)},
        {"rows": np.array([2, 2], dtype=np.int64)},
        {"rows": np.array([-1, 4], dtype=np.int64)},
        {"rows": np.array([0, 10**6], dtype=np.int64)},
        {"rows": np.array([0.0, 1.0])},
        {"rows": np.zeros((2, 2), dtype=np.int64)},
        {"Q": np.zeros((2, 8))},
    ],
    ids=["descending", "repeated", "negative", "past_the_end", "float", "2d", "Q"],
)
def test_bad_pairs_rows_fail_without_retry(worker_pool, monkeypatch, arrays):
    X = points(4, 30, 8, 0, "cosine")
    sent = []
    call = _WorkerClient.call

    def spy(self, header, arrays=None):
        sent.append(header["op"])
        return call(self, header, arrays)

    monkeypatch.setattr(pool_mod._WorkerClient, "call", spy)
    spec = worker_pool.executor_spec(retries=2)
    executor = RemoteExecutor(X, {0: (0, 30)}, "cosine", spec)
    try:
        with pytest.raises(RemoteExecutorError, match="RemoteProtocolError"):
            executor.run("pairs", [(0, 0.5, arrays)])
        assert sent.count("pairs") == 1
        # The same connection answers a good join next.
        (reply,) = executor.run("pairs", [(0, 0.5, {"rows": np.arange(3)})])
        assert reply["indptr"].size == 4
    finally:
        executor.close()


def test_a_join_slower_than_the_timeout_fails_typed(worker_pool, monkeypatch):
    # Every pair of 2,000 points lies within eps 2: one shard's join takes
    # about 0.15 s, fifteen times the 10 ms timeout.
    X = points(6, 2000, 64, 0, "cosine")
    with ShardedIndex(n_shards=1, executor=worker_pool.executor_spec()).build(X) as w:
        w.range_pairs(1e-6, np.arange(1))  # the worker holds X and the shard
    sent = []
    call = _WorkerClient.call

    def spy(self, header, arrays=None):
        sent.append(header["op"])
        return call(self, header, arrays)

    monkeypatch.setattr(pool_mod._WorkerClient, "call", spy)
    spec = worker_pool.executor_spec(timeout_s=0.01, retries=1)
    with ShardedIndex(n_shards=1, executor=spec).build(X) as index:
        with pytest.raises(RetryExhaustedError, match="shard 0 pairs .* timed out 2"):
            index.range_pairs(2.0)
    assert sent.count("pairs") == 2  # the retry ran the whole join again
    # The pool answers the next join under the default timeout.
    expected = BruteForceIndex().build(X).range_pairs(0.5)
    spec = worker_pool.executor_spec()
    with ShardedIndex(n_shards=1, executor=spec).build(X) as index:
        assert_join_equal(index.range_pairs(0.5), expected, None)


@pytest.mark.parametrize(
    "n_workers,n_shards,expected",
    [
        (2, 4, [0, 1, 1, 0]),
        (2, 3, [0, 1, 1]),
        (3, 7, [0, 1, 2, 2, 1, 0, 0]),
        (1, 3, [0, 0, 0]),
    ],
)
def test_shards_are_dealt_in_boustrophedon_order(n_workers, n_shards, expected):
    # Work on shard s of a self-join grows as 2s + 1: the snake gives
    # 2 workers x 4 shards 1 + 7 and 3 + 5 of it.
    # Building an executor connects to nothing: the addresses are unused.
    spec = ExecutorSpec(tuple(f"127.0.0.1:{9 + i}" for i in range(n_workers)))
    offsets = shard_offsets(40, n_shards)
    shards = {s: (int(offsets[s]), int(offsets[s + 1])) for s in range(n_shards)}
    executor = RemoteExecutor(np.zeros((40, 2)), shards, "cosine", spec)
    try:
        assert [executor._assignment[s] for s in range(n_shards)] == expected
    finally:
        executor.close()
