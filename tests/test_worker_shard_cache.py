"""Worker-side shard-cache bounds: LRU eviction, pinning, rebuild proof.

A long-lived warm worker caches every shard index it ever builds; the
``max_cached_shards`` / ``max_cached_bytes`` caps bound that cache with
LRU eviction. The contracts under test:

* eviction follows **recency of attach**, never touches an entry pinned
  by an in-flight query, and closes victims outside the holder lock;
* ``n_evictions`` / ``cached_bytes`` in :meth:`ShardHolder.stats` make
  the cache observable, and an evicted shard is simply rebuilt (and
  counted) on its next attach;
* end to end, a capped pool still produces **bit-identical** labels —
  eviction costs rebuilds (``shard_inner_builds > 0`` on a refit that
  would be free under an unbounded cache), never correctness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import DBSCAN
from repro.engine_config import ExecutionConfig
from repro.exceptions import InvalidParameterError
from repro.index.sharded import ShardingConfig
from repro.remote.pool import WorkerPool
from repro.remote.worker import ShardHolder
from repro.testing import make_blobs_on_sphere

EPS = 0.55
TAU = 4

FINGERPRINT = "test-dataset-fingerprint"


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    X, _ = make_blobs_on_sphere(20, 3, 10, spread=0.2, seed=7)
    return X


def shard_spec(shard_id: int, lo: int, hi: int) -> dict:
    return {
        "dataset": FINGERPRINT,
        "artifact": None,
        "inner": "brute_force",
        "inner_kwargs": {},
        "shard_id": shard_id,
        "lo": lo,
        "hi": hi,
    }


def holder_with_data(data: np.ndarray, **caps) -> ShardHolder:
    holder = ShardHolder(**caps)
    holder.put_dataset(FINGERPRINT, data)
    return holder


class TestShardHolderLRU:
    def test_unbounded_by_default(self, data):
        holder = holder_with_data(data)
        for i in range(4):
            holder.attach(shard_spec(i, i * 10, (i + 1) * 10))
        stats = holder.stats()
        assert stats["indexes"] == 4
        assert stats["evictions"] == 0
        assert stats["cached_bytes"] > 0

    def test_cap_evicts_least_recently_attached(self, data):
        holder = holder_with_data(data, max_cached_shards=2)
        a, b, c = (shard_spec(i, i * 10, (i + 1) * 10) for i in range(3))
        holder.attach(a)
        holder.attach(b)
        # Touch a: it becomes most-recent, so admitting c must evict b.
        _, rebuilt = holder.attach(a)
        assert not rebuilt
        holder.attach(c)
        assert holder.stats()["evictions"] == 1
        assert holder.stats()["indexes"] == 2
        _, rebuilt_a = holder.attach(a)
        _, rebuilt_b = holder.attach(b)
        assert not rebuilt_a  # survived as most-recent
        assert rebuilt_b  # was the LRU victim, rebuilt on re-attach

    def test_pinned_entries_survive_overshoot(self, data):
        holder = holder_with_data(data, max_cached_shards=1)
        a = shard_spec(0, 0, 10)
        b = shard_spec(1, 10, 20)
        with holder.acquire(a):
            # a is pinned by the in-flight query: admitting b overshoots
            # the cap, and the only evictable entry is b itself.
            holder.attach(b)
            assert holder.stats()["evictions"] == 1
            _, rebuilt = holder.attach(a)
            assert not rebuilt
        # Unpinned now: the next admission may finally evict a.
        holder.attach(b)
        assert holder.stats()["indexes"] == 1
        _, rebuilt = holder.attach(a)
        assert rebuilt

    def test_nested_pins_require_matching_releases(self, data):
        holder = holder_with_data(data, max_cached_shards=1)
        a = shard_spec(0, 0, 10)
        b = shard_spec(1, 10, 20)
        with holder.acquire(a), holder.acquire(a):
            pass  # inner release must not unpin the outer hold early
        holder.attach(b)
        _, rebuilt = holder.attach(a)
        assert rebuilt  # fully released => evictable

    def test_bytes_count_the_float32_copy(self, data):
        # A cosine brute-force shard holds its rows twice: the float64
        # matrix and the float32 copy its range-query kernel reads.
        holder = holder_with_data(data)
        holder.attach(shard_spec(0, 0, 10))
        assert holder.stats()["cached_bytes"] == (8 + 4) * data[:10].size

    def test_bytes_cap(self, data):
        one_shard_bytes = (8 + 4) * data[:10].size  # float64 rows + float32 copy
        holder = holder_with_data(
            data, max_cached_bytes=int(one_shard_bytes * 1.5)
        )
        holder.attach(shard_spec(0, 0, 10))
        assert holder.stats()["cached_bytes"] == one_shard_bytes
        holder.attach(shard_spec(1, 10, 20))
        stats = holder.stats()
        assert stats["evictions"] == 1
        assert stats["indexes"] == 1
        assert stats["cached_bytes"] == one_shard_bytes

    def test_caps_validated(self):
        with pytest.raises(InvalidParameterError, match="max_cached_shards"):
            ShardHolder(max_cached_shards=0)
        with pytest.raises(InvalidParameterError, match="max_cached_bytes"):
            ShardHolder(max_cached_bytes=0)


class TestCappedPoolEndToEnd:
    def test_capped_pool_bit_identical_and_rebuilds(self, data):
        serial = DBSCAN(eps=EPS, tau=TAU).fit(data)
        with WorkerPool.spawn_local(1, max_cached_shards=1) as pool:
            execution = ExecutionConfig(
                sharding=ShardingConfig(
                    n_shards=3, executor=pool.executor_spec()
                )
            )
            first = DBSCAN(eps=EPS, tau=TAU, execution=execution).fit(data)
            second = DBSCAN(eps=EPS, tau=TAU, execution=execution).fit(data)
        assert np.array_equal(first.labels, serial.labels)
        assert np.array_equal(second.labels, serial.labels)
        # With three shards funneled through a one-slot cache, the refit
        # cannot ride the warm path an unbounded worker would give for
        # free (the warm-reuse suite proves that baseline is zero).
        assert second.stats["shard_inner_builds"] > 0
