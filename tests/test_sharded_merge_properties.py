"""Property-based tests for the sharded backend's CSR merge kernels.

The kernels (:func:`rows_to_csr` / :func:`csr_to_rows` /
:func:`concat_shard_rows` / :func:`shard_offsets` in
:mod:`repro.index.sharded`) are the exactness core of the sharded
backend: whatever random dataset is split into whatever random row
shards, re-running the per-shard queries and merging must reassemble
*exactly* the unsharded neighbor rows — sorted, deduped, globally
indexed. The oracle is :func:`merge_shard_rows` below, a per-row
sort-and-deduplicate merge that is right for arbitrary (even
overlapping) splits. Hypothesis drives the randomness; every strategy
is seeded by the shared deterministic profile, so failures replay.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import normalize_rows
from repro.index import BruteForceIndex
from repro.index.sharded import (
    concat_shard_rows,
    csr_to_rows,
    rows_to_csr,
    shard_offsets,
)

MAX_EXAMPLES = 40


def merge_shard_rows(per_shard_rows, shard_starts, n_queries):
    """Merge shard-local hit rows into global, sorted, deduplicated rows.

    ``per_shard_rows[s][q]`` holds query ``q``'s hits within shard ``s``
    in shard-local numbering; ``shard_starts[s]`` is the shard's first
    global row. Row ``q`` of the result is the sorted union of
    ``per_shard_rows[s][q] + shard_starts[s]`` over all shards.
    """
    merged = []
    for q in range(n_queries):
        parts = [
            np.asarray(rows[q], dtype=np.int64) + start
            for rows, start in zip(per_shard_rows, shard_starts)
        ]
        merged.append(np.unique(np.concatenate([np.empty(0, np.int64), *parts])))
    return merged


def concat_rows(per_shard_rows, shard_starts, n_queries):
    """:func:`concat_shard_rows` of the shards' rows packed as CSR, as rows."""
    per_shard = [rows_to_csr(rows) for rows in per_shard_rows]
    return csr_to_rows(*concat_shard_rows(per_shard, n_queries, shard_starts))


def dataset(seed: int, n: int, dim: int) -> np.ndarray:
    return normalize_rows(np.random.default_rng(seed).normal(size=(n, dim)))


def split_rows(offsets: np.ndarray, seed: int, eps: float, X: np.ndarray):
    """Per-shard brute-force hit rows plus each shard's global start."""
    per_shard, starts = [], []
    for s in range(len(offsets) - 1):
        lo, hi = int(offsets[s]), int(offsets[s + 1])
        if hi == lo:
            continue
        shard_index = BruteForceIndex().build(X[lo:hi])
        per_shard.append(shard_index.batch_range_query(X, eps))
        starts.append(lo)
    return per_shard, starts


class TestShardOffsets:
    @given(
        n=st.integers(0, 500),
        n_shards=st.integers(1, 40),
    )
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_offsets_partition_exactly(self, n, n_shards):
        offsets = shard_offsets(n, n_shards)
        sizes = np.diff(offsets)
        assert offsets[0] == 0 and offsets[-1] == n
        assert len(sizes) == n_shards
        assert (sizes >= 0).all()
        # Balanced: shard sizes differ by at most one row.
        assert sizes.max() - sizes.min() <= 1 if n_shards else True


class TestCsrRoundtrip:
    @given(
        seed=st.integers(0, 10_000),
        n_rows=st.integers(0, 30),
    )
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_rows_to_csr_roundtrips(self, seed, n_rows):
        rng = np.random.default_rng(seed)
        rows = [
            rng.integers(0, 1000, size=rng.integers(0, 12)).astype(np.int64)
            for _ in range(n_rows)
        ]
        indptr, flat = rows_to_csr(rows)
        assert indptr.dtype == np.int64 and flat.dtype == np.int64
        assert indptr[-1] == sum(len(r) for r in rows)
        back = csr_to_rows(indptr, flat)
        assert len(back) == n_rows
        for original, restored in zip(rows, back):
            assert np.array_equal(original, restored)


class TestMergeReassemblesUnshardedRows:
    # eps is either exactly 0 or bounded away from it: a zero distance is
    # computed as exactly 0.0 by a one-row shard (GEMV) but can come out
    # ~1e-16 from the full-matrix GEMM (different reduction order), so an
    # eps *inside that sub-ulp band* legitimately classifies the pair
    # differently per path. Real eps values are nowhere near 1e-15.
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 60),
        dim=st.integers(2, 8),
        n_shards=st.integers(1, 12),
        eps=st.one_of(st.just(0.0), st.floats(1e-6, 1.5)),
    )
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_random_contiguous_splits(self, seed, n, dim, n_shards, eps):
        X = dataset(seed, n, dim)
        expected = BruteForceIndex().build(X).batch_range_query(X, eps)
        per_shard, starts = split_rows(shard_offsets(n, n_shards), seed, eps, X)
        merged = merge_shard_rows(per_shard, starts, n_queries=n)
        assert len(merged) == n
        for got, exp in zip(merged, expected):
            assert np.array_equal(got, np.sort(exp))
            # Sorted and deduplicated by construction of the kernel.
            assert np.array_equal(got, np.unique(got))
        # The hot-path kernel (no sort/dedup) agrees on disjoint sorted
        # shards — the shape ShardedIndex always produces.
        fast = concat_rows(per_shard, starts, n)
        assert len(fast) == n
        for got, exp in zip(fast, merged):
            assert got.dtype == np.int64
            assert np.array_equal(got, exp)

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 40),
        n_shards=st.integers(1, 8),
    )
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_uneven_random_cut_points(self, seed, n, n_shards):
        """Arbitrary (not balanced) contiguous cuts reassemble too."""
        rng = np.random.default_rng(seed)
        X = dataset(seed + 1, n, 6)
        eps = 0.8
        cuts = np.sort(rng.integers(0, n + 1, size=n_shards - 1))
        offsets = np.concatenate([[0], cuts, [n]]).astype(np.int64)
        expected = BruteForceIndex().build(X).batch_range_query(X, eps)
        per_shard, starts = split_rows(offsets, seed, eps, X)
        merged = merge_shard_rows(per_shard, starts, n_queries=n)
        for got, exp in zip(merged, expected):
            assert np.array_equal(got, np.sort(exp))
        for got, exp in zip(concat_rows(per_shard, starts, n), merged):
            assert np.array_equal(got, exp)

    @given(seed=st.integers(0, 10_000), n_queries=st.integers(0, 20))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_overlapping_shards_deduplicate(self, seed, n_queries):
        """The kernel's dedup guarantee holds for overlapping splits."""
        rng = np.random.default_rng(seed)
        rows_a = [
            rng.integers(0, 15, size=rng.integers(0, 8)).astype(np.int64)
            for _ in range(n_queries)
        ]
        rows_b = [
            rng.integers(0, 15, size=rng.integers(0, 8)).astype(np.int64)
            for _ in range(n_queries)
        ]
        # Both "shards" start at global row 0: maximal overlap.
        merged = merge_shard_rows([rows_a, rows_b], [0, 0], n_queries=n_queries)
        for got, a, b in zip(merged, rows_a, rows_b):
            assert np.array_equal(got, np.unique(np.concatenate([a, b])))

    def test_no_shards_yields_empty_rows(self):
        merged = merge_shard_rows([], [], n_queries=3)
        assert [r.size for r in merged] == [0, 0, 0]
        indptr, flat = concat_shard_rows([], 3)
        assert indptr.tolist() == [0, 0, 0, 0] and flat.size == 0


class TestConcatGlobalCsr:
    @given(
        seed=st.integers(0, 10_000),
        n_queries=st.integers(0, 20),
        n_shards=st.integers(1, 5),
    )
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_rows_are_the_shards_rows_in_shard_order(self, seed, n_queries, n_shards):
        # Global int32 ids (starts None), as a pairs join replies: row q
        # is each shard's row q in shard order, the dtype kept.
        rng = np.random.default_rng(seed)
        per_shard_rows = [
            [
                np.sort(rng.integers(0, 100, size=rng.integers(0, 6))).astype(np.int32)
                for _ in range(n_queries)
            ]
            for _ in range(n_shards)
        ]
        per_shard = []
        for rows in per_shard_rows:
            indptr, flat = rows_to_csr(rows)
            per_shard.append((indptr, flat.astype(np.int32)))
        indptr, cols = concat_shard_rows(per_shard, n_queries)
        assert cols.dtype == np.int32
        for q, got in enumerate(csr_to_rows(indptr, cols)):
            expected = np.concatenate(
                [np.empty(0, np.int32)] + [rows[q] for rows in per_shard_rows]
            )
            assert np.array_equal(got, expected)
