"""Batched range-query engine shared by every clusterer.

The clustering algorithms in this repo are frontier expansions: they
discover, in data-dependent order, which points need their
eps-neighborhood. Executing those queries one ``index.range_query`` call
at a time leaves the dominant cost path as a Python loop of
matrix-vector products. :class:`NeighborhoodCache` turns the same
workload into blockwise ``batch_range_query_rows`` calls (the index's
batched query of its own rows, by row id) without changing
*which* queries run or *when* their results become visible to the
algorithm:

* the clusterer **plans** the points whose neighborhoods it knows it
  will eventually need (for DBSCAN that is every point; for LAF-DBSCAN
  every predicted-core point);
* every **fetch** of an uncached point computes one block — the fetched
  point plus the next planned, still-uncached points — in a single
  batched index call;
* results are cached until served, so each point's neighborhood is
  computed once per fit (every clusterer fetches each point at most
  once).

Correctness contract: computation is *pure* (a neighborhood depends only
on the immutable index, the query point and ``eps``), so prefetching a
planned point early yields bit-identical results to querying it at its
algorithmic execution time. Side effects tied to query execution — the
LAF plugin's ``PartialNeighborMap.update`` (Algorithm 2), statistics
counters — remain the host algorithm's job at the moment it *uses* a
fetched neighborhood, which keeps the batched and per-point paths
observationally identical (the differential tests in
``tests/test_engine_equivalence.py`` assert exactly this). Because the
engine is demand-driven, a planned point whose fetch never happens costs
nothing, so planning is a prefetch-ordering hint, never speculation.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.index.sharded import resolve_engine_index

__all__ = ["NeighborhoodCache", "PerPointQueries"]


#: Default number of queries computed per batched index call.
DEFAULT_QUERY_BLOCK = 1024


class PerPointQueries:
    """Per-point reference engine behind the :class:`NeighborhoodCache`
    surface.

    The ``batch_queries=False`` escape hatch of every clusterer: same
    ``plan`` / ``fetch`` / ``count`` / ``stats`` interface as the cache,
    but every query executes as one scalar index call at its algorithmic
    position — the reference path the differential harness diffs the
    batched engine against. ``plan`` is a no-op (there is nothing to
    prefetch) and ``stats`` is empty (no engine ran).
    """

    def __init__(self, index, X: np.ndarray, eps: float) -> None:
        self._index = index
        self._X = np.asarray(X, dtype=np.float64)
        self.eps = float(eps)

    def plan(self, indices) -> None:
        """Accepted for interface parity; per-point execution never
        prefetches."""

    def fetch(self, point: int) -> np.ndarray:
        """The eps-neighborhood of dataset row ``point`` (one scalar call)."""
        return self._index.range_query(self._X[int(point)], self.eps)

    def count(self, indices) -> np.ndarray:
        """Range counts of dataset rows, one scalar call per row."""
        ids = np.asarray(indices, dtype=np.int64)
        return np.fromiter(
            (self._index.range_count(self._X[i], self.eps) for i in ids),
            dtype=np.int64,
            count=ids.size,
        )

    def close(self) -> None:
        """Nothing to release: the host built and owns the index."""

    def stats(self) -> dict[str, int]:
        """No engine counters: nothing batched, nothing cached."""
        return {}


class NeighborhoodCache:
    """Caches eps-neighborhoods, computing them in planned batches.

    Parameters
    ----------
    index:
        A :class:`~repro.index.base.NeighborIndex` over the dataset ``X``
        (:class:`~repro.index.brute_force.BruteForceIndex` makes the batch
        a true blocked matrix product). An *unbuilt* index (``is_built``
        False) may be handed over instead: the cache builds it over ``X``
        exactly once — and when sharding is active it builds the
        per-shard brute-force indexes *directly* (the shard-before-build
        path), so no whole-dataset index is ever constructed just to be
        discarded.
    X:
        The indexed point matrix; ``fetch`` takes row indices into it,
        and the index is queried with those row ids.
    eps:
        Cosine-distance threshold of every cached query.
    block_size:
        Maximum queries per batched index call. ``1`` degenerates to the
        per-point path (useful for differential testing).
    sharding:
        Optional :class:`~repro.index.sharded.ShardingConfig` for this
        cache — normally threaded in from
        :attr:`~repro.engine_config.ExecutionConfig.sharding`; None (the
        default) means unsharded. When a configuration is given, the
        cache routes through a
        :class:`~repro.index.sharded.ShardedIndex` of brute-force shards
        in ``index``'s metric, built directly over ``X`` — and this is
        how every clusterer that routes neighborhoods through the engine
        gains sharded execution without code changes. Results are
        bit-identical (a neighborhood is the disjoint union of its
        per-shard neighborhoods).

    A neighborhood is released as soon as it is served, so only
    prefetched-but-unserved results stay resident; every clusterer here
    fetches each point at most once. A re-fetch after release
    recomputes, which trades compute for memory, never correctness.
    """

    def __init__(
        self,
        index,
        X: np.ndarray,
        eps: float,
        block_size: int = DEFAULT_QUERY_BLOCK,
        sharding=None,
    ) -> None:
        if block_size <= 0:
            raise InvalidParameterError(
                f"block_size must be positive; got {block_size}"
            )
        X = np.asarray(X, dtype=np.float64)
        # When the cache built (or shard-wrapped) the index itself, the
        # result — and its thread pool or worker connections — belongs
        # to this cache: close() releases it deterministically.
        self._index, self._owns_index = resolve_engine_index(index, X, sharding)
        self.eps = float(eps)
        self.block_size = int(block_size)
        n = X.shape[0]
        self._cached = np.zeros(n, dtype=bool)
        # Points computed at least once; released points stay marked so
        # the plan never re-batches something already served.
        self._ever_computed = np.zeros(n, dtype=bool)
        self._neighborhoods: list[np.ndarray | None] = [None] * n
        self._plan: list[int] = []
        self._plan_pos = 0
        self.n_fetches = 0
        self.n_cache_hits = 0
        self.n_computed = 0
        self.n_blocks = 0

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan(self, indices: Iterable[int] | np.ndarray) -> None:
        """Append points to the prefetch order.

        Plan the points the algorithm knows it will query, in the order
        it is likely to query them. Already-cached or duplicate entries
        are skipped lazily at fill time.
        """
        indices = np.asarray(indices, dtype=np.int64)
        self._plan.extend(indices.tolist())

    # ------------------------------------------------------------------
    # Fetching
    # ------------------------------------------------------------------

    def fetch(self, point: int) -> np.ndarray:
        """The eps-neighborhood of dataset row ``point``.

        A cache miss computes ``point`` together with the next planned,
        still-uncached points in one batched index call.
        """
        point = int(point)
        self.n_fetches += 1
        if self._cached[point]:
            self.n_cache_hits += 1
        else:
            self._fill_block(point)
        neighbors = self._neighborhoods[point]
        self._neighborhoods[point] = None
        self._cached[point] = False
        return neighbors

    def is_cached(self, point: int) -> bool:
        """Whether ``point``'s neighborhood is already computed."""
        return bool(self._cached[point])

    def count(self, indices) -> np.ndarray:
        """Batched range counts of dataset rows (uncached).

        Routes through the index's ``batch_range_count_rows`` kernel — which
        never materializes neighbor lists on backends that can count
        directly — and therefore bypasses the neighborhood cache: hosts
        use it for count-only phases (DBSCAN++'s core test), where
        caching would only cost memory. Sharded indexes sum per-shard
        counts, so sharding applies here exactly as it does to ``fetch``.
        """
        ids = np.asarray(indices, dtype=np.int64)
        return np.asarray(
            self._index.batch_range_count_rows(ids, self.eps), dtype=np.int64
        )

    def _fill_block(self, point: int) -> None:
        batch = [point]
        in_batch = {point}
        plan = self._plan
        while len(batch) < self.block_size and self._plan_pos < len(plan):
            candidate = plan[self._plan_pos]
            self._plan_pos += 1
            if candidate not in in_batch and not self._ever_computed[candidate]:
                batch.append(candidate)
                in_batch.add(candidate)
        ids = np.asarray(batch, dtype=np.int64)
        results = self._index.batch_range_query_rows(ids, self.eps)
        for idx, neighbors in zip(batch, results):
            self._neighborhoods[idx] = neighbors
            self._cached[idx] = True
        self._ever_computed[ids] = True
        self.n_computed += len(batch)
        self.n_blocks += 1

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release an index this cache built or shard-wrapped. Idempotent.

        Ownership follows the build: a *fitted* index the caller handed
        in stays the caller's (closing the cache is then a no-op), but
        an index the cache built — including an unbuilt object the
        caller passed, which the cache built in place — belongs to the
        cache and is released here. Don't hand the engine an unbuilt
        index you intend to keep querying after the cache closes.
        """
        if self._owns_index:
            closer = getattr(self._index, "close", None)
            if closer is not None:
                closer()

    def __enter__(self) -> "NeighborhoodCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Engine counters, merged into the host's ClusteringResult.

        When the cache routes through a :class:`ShardedIndex`, its build
        accounting (``shard_inner_builds`` / ``shard_live_shards`` /
        ``shard_rebalances``) is merged in, so every cache-routed
        clusterer surfaces the build-once evidence for free.
        """
        stats = {
            "engine_batches": self.n_blocks,
            "engine_computed": self.n_computed,
            "engine_cache_hits": self.n_cache_hits,
        }
        index_stats = getattr(self._index, "stats", None)
        if callable(index_stats):
            stats.update(index_stats())
        return stats
