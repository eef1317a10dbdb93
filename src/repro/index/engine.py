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
fetched neighborhood, which keeps the batched engine observationally
identical to one scalar query per point (the differential tests in
``tests/test_engine_equivalence.py`` diff every clusterer against
:class:`repro.testing.PerPointEngine`, that reference). Because the
engine is demand-driven, a planned point whose fetch never happens costs
nothing, so planning is a prefetch-ordering hint, never speculation.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.distances.metric import COSINE, Metric
from repro.index.base import check_positive_int
from repro.index.sharded import resolve_engine_index

__all__ = ["NeighborhoodCache"]


#: Default number of queries computed per batched index call.
DEFAULT_QUERY_BLOCK = 1024


class NeighborhoodCache:
    """Caches eps-neighborhoods, computing them in planned batches.

    Parameters
    ----------
    X:
        The point matrix; the cache builds its own index over it
        (:func:`~repro.index.sharded.resolve_engine_index`), ``fetch``
        takes row indices into it, and the index is queried with those
        row ids.
    eps:
        Distance threshold of every cached query.
    metric:
        Metric of the index (the fit's metric).
    block_size:
        Maximum queries per batched index call, an ``int >= 1``. ``1``
        computes one query per call.
    sharding:
        Optional :class:`~repro.index.sharded.ShardingConfig` — normally
        threaded in from
        :attr:`~repro.engine_config.ExecutionConfig.sharding`; None (the
        default) means one
        :class:`~repro.index.brute_force.BruteForceIndex`. With a
        configuration the cache queries a
        :class:`~repro.index.sharded.ShardedIndex` of brute-force shards
        built directly over ``X`` (no whole-dataset index is built just
        to be discarded), and this is how every clusterer that routes
        neighborhoods through the engine gains sharded execution without
        code changes. Results are bit-identical (a neighborhood is the
        disjoint union of its per-shard neighborhoods).

    The cache owns the index it built and releases it in :meth:`close`.

    A neighborhood is released as soon as it is served, so only
    prefetched-but-unserved results stay resident; every clusterer here
    fetches each point at most once. A re-fetch after release
    recomputes, which trades compute for memory, never correctness.
    """

    def __init__(
        self,
        X: np.ndarray,
        eps: float,
        metric: str | Metric = COSINE,
        block_size: int = DEFAULT_QUERY_BLOCK,
        sharding=None,
    ) -> None:
        check_positive_int("block_size", block_size)
        X = np.asarray(X, dtype=np.float64)
        self._index = resolve_engine_index(X, metric, sharding)
        self.eps = float(eps)
        self.block_size = block_size
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
        """Release the index (a sharded one's pools or connections).
        Idempotent."""
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
