"""Property-based round-trip tests for index persistence.

The persistence contract is *bit identity*: for every backend and every
query form, ``load(save(index))`` must answer exactly what the original
answered — same neighbor rows, same counts — because a worker
reattaching a shard artifact must be indistinguishable from the process
that built it. Hypothesis drives random datasets across both metrics,
sharded and unsharded, including the awkward cases: ``eps=0`` (strict
``<`` yields no self-hits), duplicated points, empty query batches, and
single-point datasets (``n >= 1`` throughout; the empty-batch case
covers the zero-query direction).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import normalize_rows
from repro.exceptions import NotFittedError
from repro.index import BruteForceIndex
from repro.index.base import NeighborIndex
from repro.index.sharded import ShardedIndex
from repro.persistence import load_index, save_index

MAX_EXAMPLES = 40

#: name -> constructor
BACKENDS = {
    "brute_force": lambda: BruteForceIndex(),
    "brute_force_euclidean": lambda: BruteForceIndex(metric="euclidean"),
    "brute_force_small_blocks": lambda: BruteForceIndex(block_size=7),
}


def dataset(seed: int, n: int, dim: int, dup: bool) -> np.ndarray:
    X = normalize_rows(np.random.default_rng(seed).normal(size=(n, dim)))
    if dup and n > 1:
        X[n // 2] = X[0]  # exact duplicate rows
    return X


def is_memory_mapped(arr) -> bool:
    """Whether ``arr`` is (a view of) a ``np.memmap``.

    ``np.asarray`` on a memmap returns a plain ``ndarray`` view whose
    ``.base`` chain ends at the map — still zero-copy.
    """
    while arr is not None:
        if isinstance(arr, np.memmap):
            return True
        arr = arr.base
    return False


def assert_rows_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def assert_identical_answers(original, loaded, Q, eps):
    assert_rows_equal(
        original.batch_range_query(Q, eps), loaded.batch_range_query(Q, eps)
    )
    assert np.array_equal(
        original.batch_range_count(Q, eps), loaded.batch_range_count(Q, eps)
    )
    empty = np.empty((0, Q.shape[1]))
    assert loaded.batch_range_query(empty, eps) == []
    assert loaded.batch_range_count(empty, eps).size == 0


@pytest.mark.parametrize("name", sorted(BACKENDS))
class TestInnerBackendRoundTrip:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 120),
        dim=st.integers(2, 24),
        eps=st.sampled_from([0.0, 0.05, 0.4, 1.2]),
        dup=st.booleans(),
    )
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_bit_identical_queries(
        self, name, tmp_path_factory, seed, n, dim, eps, dup
    ):
        make = BACKENDS[name]
        X = dataset(seed, n, dim, dup)
        Q = dataset(seed + 1, min(n, 17), dim, dup=False)
        original = make().build(X)
        path = tmp_path_factory.mktemp("artifact") / name
        save_index(original, path)
        loaded = load_index(path)
        assert type(loaded) is type(original)
        assert loaded.block_size == original.block_size
        assert loaded.metric == original.metric
        assert_identical_answers(original, loaded, Q, eps)
        # Queries drawn from the indexed points themselves (self-hits,
        # duplicates) must round-trip too.
        assert_identical_answers(original, loaded, X[: min(n, 8)], eps)

    def test_loaded_points_are_memory_mapped(self, name, tmp_path):
        make = BACKENDS[name]
        X = dataset(3, 40, 8, dup=False)
        path = tmp_path / name
        save_index(make().build(X), path)
        loaded = load_index(path)
        assert is_memory_mapped(loaded.points)
        assert not loaded.points.flags.writeable
        loaded_copy = load_index(path, mmap=False)
        assert not is_memory_mapped(loaded_copy.points)

    def test_unbuilt_index_refuses_to_save(self, name, tmp_path):
        make = BACKENDS[name]
        with pytest.raises(NotFittedError):
            save_index(make(), tmp_path / name)


class TestShardedRoundTrip:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 120),
        dim=st.integers(2, 16),
        n_shards=st.integers(1, 6),
        metric=st.sampled_from(["cosine", "euclidean"]),
        executor=st.sampled_from(["serial", "thread"]),
        eps=st.sampled_from([0.0, 0.4, 1.2]),
    )
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_bit_identical_queries(
        self, tmp_path_factory, seed, n, dim, n_shards, metric, executor, eps
    ):
        X = dataset(seed, n, dim, dup=False)
        Q = dataset(seed + 1, min(n, 13), dim, dup=False)
        original = ShardedIndex(
            metric=metric, n_shards=n_shards, executor=executor
        ).build(X)
        path = tmp_path_factory.mktemp("artifact") / "sharded"
        save_index(original, path)
        loaded = load_index(path)
        assert isinstance(loaded, ShardedIndex)
        assert loaded.metric == original.metric
        assert loaded.n_live_shards == original.n_live_shards
        assert_identical_answers(original, loaded, Q, eps)
        original.close()
        loaded.close()

    def test_points_stored_once_and_mmapped(self, tmp_path):
        X = dataset(7, 60, 8, dup=False)
        original = ShardedIndex(n_shards=4).build(X)
        path = tmp_path / "sharded"
        save_index(original, path)
        # One top-level points.npy; shard artifacts hold no point copies.
        assert (path / "points.npy").is_file()
        for shard_dir in sorted((path / "shards").iterdir()):
            assert not (shard_dir / "points.npy").exists()
        loaded = load_index(path)
        assert is_memory_mapped(loaded.points)
        # Each shard's slice views the same memory map — never a copy.
        shard = loaded.shard_indexes()[0]
        assert is_memory_mapped(shard.points)
        original.close()
        loaded.close()

    def test_save_load_via_index_methods(self, tmp_path):
        X = dataset(9, 30, 6, dup=False)
        original = ShardedIndex(n_shards=2).build(X)
        original.save(tmp_path / "s")
        loaded = ShardedIndex.load(tmp_path / "s")
        assert isinstance(loaded, ShardedIndex)
        assert_rows_equal(
            original.batch_range_query(X, 0.4), loaded.batch_range_query(X, 0.4)
        )
        original.close()
        loaded.close()


class TestLoadClassmethodTyping:
    def test_base_class_loads_any_kind(self, tmp_path):
        X = dataset(1, 20, 6, dup=False)
        BruteForceIndex().build(X).save(tmp_path / "bf")
        assert isinstance(NeighborIndex.load(tmp_path / "bf"), BruteForceIndex)

    def test_concrete_class_rejects_other_kind(self, tmp_path):
        from repro.exceptions import PersistenceError

        X = dataset(1, 20, 6, dup=False)
        BruteForceIndex().build(X).save(tmp_path / "bf")
        with pytest.raises(PersistenceError, match="not a ShardedIndex"):
            ShardedIndex.load(tmp_path / "bf")
