"""Exact brute-force index over vectors, metric-pluggable.

The "range query" primitive of Algorithm 1. The batched
``batch_range_query`` (one matrix product per block of queries) is what
every fit runs; ``batch_range_count``, on the same kernel,
is the exact cardinality estimator's. The scalar ``range_query`` /
``range_count`` (one float64 matrix-vector product per query) are the
reference answer the batched kernels, and the per-point engine of
:mod:`repro.testing`, are checked against.

The default metric is cosine distance on unit vectors (the paper's
setting); Euclidean distance is available through the ``metric``
parameter (the paper's future-work extension, see
:mod:`repro.distances.metric`).

Cosine batch range queries run on a float32 copy of the points with an
exact float64 recheck near ``eps``
(:func:`~repro.distances.matrix.iter_cosine_range_masks`); Euclidean
ones stay on float64 distance blocks.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.distances.matrix import (
    DEFAULT_BLOCK_SIZE,
    _max_row_norm,
    iter_cosine_range_masks,
    iter_distance_blocks,
)
from repro.distances.metric import COSINE, Metric, get_metric
from repro.exceptions import InvalidParameterError
from repro.index.base import NeighborIndex, check_plan_rows, check_positive_int

__all__ = ["BruteForceIndex"]


class BruteForceIndex(NeighborIndex):
    """Exact distance index backed by dense matrix products.

    Parameters
    ----------
    block_size:
        Row-block size for the batched query paths. Peak memory of a
        cosine batch range query is about ``7 * block_size * n_points``
        bytes (a float32 similarity block and two bool masks); the other
        batched paths hold ``block_size * n_points`` float64 distances.
        The row-id form gathers ``block_size`` query rows at a time.
    metric:
        "cosine" (default, requires unit rows) or "euclidean". A cosine
        index keeps a float32 copy of the points next to the float64
        matrix: ``4 * n_points * dim`` more bytes.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.distances import normalize_rows
    >>> X = normalize_rows(np.random.default_rng(0).normal(size=(100, 16)))
    >>> index = BruteForceIndex().build(X)
    >>> neighbors = index.range_query(X[0], eps=0.5)
    >>> bool(np.isin(0, neighbors))  # a point is its own neighbor (d=0 < eps)
    True
    """

    def __init__(
        self, block_size: int = DEFAULT_BLOCK_SIZE, metric: str | Metric = COSINE
    ) -> None:
        check_positive_int("block_size", block_size)
        self.block_size = block_size
        self.metric = get_metric(metric)
        self._points: np.ndarray | None = None
        self._points32: np.ndarray | None = None
        self._max_norm = 0.0

    def build(self, X: np.ndarray) -> "BruteForceIndex":
        # Everything a query reads is derived here, once: a built index
        # is never mutated by a query, so threads may share it.
        points = self.metric.validate(X)
        self._points = points
        if self.metric.name == "cosine":
            self._points32 = points.astype(np.float32)
            self._max_norm = _max_row_norm(points)
        return self

    def range_query(self, q: np.ndarray, eps: float) -> np.ndarray:
        """Float64 reference: indices with distance to ``q`` strictly below
        ``eps`` (a query equal to an indexed point returns that point)."""
        self._require_built()
        dists = self.metric.distance_to_many(
            np.asarray(q, dtype=np.float64), self._points
        )
        return np.flatnonzero(dists < eps)

    def range_count(self, q: np.ndarray, eps: float) -> int:
        """Float64 reference: the size of :meth:`range_query`."""
        self._require_built()
        dists = self.metric.distance_to_many(
            np.asarray(q, dtype=np.float64), self._points
        )
        return int(np.count_nonzero(dists < eps))

    def knn_query(self, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        self._require_built()
        if k <= 0:
            raise InvalidParameterError(f"k must be positive; got {k}")
        k = min(k, self.n_points)
        dists = self.metric.distance_to_many(
            np.asarray(q, dtype=np.float64), self._points
        )
        nearest = np.argpartition(dists, k - 1)[:k]
        order = np.argsort(dists[nearest], kind="stable")
        idx = nearest[order]
        return idx, dists[idx]

    # ------------------------------------------------------------------
    # Batched forms (exact, blockwise)
    # ------------------------------------------------------------------

    def _iter_masks(self, Q: np.ndarray, eps: float):
        """``(start, stop, mask)`` blocks with ``mask[i, j] = d(Q[i], x_j) < eps``."""
        if self.metric.name == "cosine":
            yield from iter_cosine_range_masks(
                Q,
                self._points,
                eps,
                block_size=self.block_size,
                X32=self._points32,
                x_norm=self._max_norm,
            )
        else:
            blocks = iter_distance_blocks(
                Q, self._points, block_size=self.block_size, metric="euclidean"
            )
            for start, stop, block in blocks:
                yield start, stop, block < eps

    def batch_range_query(self, Q: np.ndarray, eps: float) -> list[np.ndarray]:
        """Exact neighbor index arrays for every row of ``Q``, blockwise.

        One matrix product per block replaces ``len(Q)`` matrix-vector
        products. Cosine blocks are a float32 GEMM whose pairs near
        ``eps`` are rechecked in float64, so the result equals the
        float64 computation's up to pairs within a few ulps of ``eps``
        (see :func:`~repro.distances.matrix.iter_cosine_range_masks`).
        """
        self._require_built()
        Q = self._as_query_matrix(Q)
        results: list[np.ndarray] = []
        for _, _, mask in self._iter_masks(Q, eps):
            results.extend(np.flatnonzero(row) for row in mask)
        return results

    def batch_range_count(self, Q: np.ndarray, eps: float) -> np.ndarray:
        """Exact neighbor counts for every row of ``Q`` at threshold ``eps``.

        The same kernel and exactness contract as :meth:`batch_range_query`.
        """
        self._require_built()
        Q = self._as_query_matrix(Q)
        counts = np.empty(Q.shape[0], dtype=np.int64)
        for start, stop, mask in self._iter_masks(Q, eps):
            counts[start:stop] = np.count_nonzero(mask, axis=1)
        return counts

    def range_pairs(
        self, eps: float, rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`NeighborIndex.range_pairs`, each pair computed once.

        The one-shard case of :meth:`column_join`: this index's points are
        both the join's rows and its columns.
        """
        self._require_built()
        if rows is not None:
            rows = check_plan_rows(rows, self.n_points)
        positions, cols = self.column_join(self._points, eps, rows)
        if rows is None:
            return positions, cols
        return rows.astype(np.int32)[positions], cols

    def column_join(
        self, X: np.ndarray, eps: float, rows: np.ndarray | None = None, lo: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """The :meth:`range_pairs` join of rows of ``X`` against this index's
        points, which are the columns ``X[lo:lo + n_points]``.

        ``rows`` (strictly ascending ids of ``X``, every row when None) are
        the join's rows, and a column among them is *planned*. The columns
        are taken planned first, then the rest; in their own order when
        that is the same, or when the rows fit one block (then nothing is
        gathered). Row block ``[s, e)`` of ``rows`` is one
        :meth:`batch_range_query` against the columns from the first
        planned one at or past ``rows[s]`` on in that order: the planned
        columns from ``rows[s]`` on, and every unplanned one. A pair
        ``(r, c)`` is kept when ``c >= r`` or ``c`` is not planned, so a
        pair of two planned points is computed once.

        Returns int32 ``(positions, cols)``: each pair's row as its
        position in ``rows`` (its id when ``rows`` is None), grouped in
        ascending order, and its column as an id of ``X``, in the order the
        block met it.
        """
        self._require_built()
        width = self.n_points
        ids = np.arange(X.shape[0]) if rows is None else rows
        planned = ids[np.searchsorted(ids, lo) : np.searchsorted(ids, lo + width)] - lo
        # Row i meets the columns from position firsts[i] on.
        firsts = np.searchsorted(planned, ids - lo)
        tail = copy.copy(self)  # shares the arrays, sliced per block
        points, points32 = self._points, self._points32
        unplanned = order = None
        if planned.size < width and ids.size > self.block_size:
            order = np.concatenate([planned, np.setdiff1d(np.arange(width), planned)])
            points = points[order]
            if points32 is not None:
                points32 = points32[order]
            order = order.astype(np.int32)
        elif planned.size < width:
            unplanned = np.ones(width, dtype=bool)
            unplanned[planned] = False
        empty = np.empty(0, dtype=np.int32)
        positions, columns = [empty], [empty]
        for s in range(0, ids.size, self.block_size):
            first = int(firsts[s])
            if first == width:
                continue  # every column is planned and below the block
            tail._points = points[first:]
            if points32 is not None:
                tail._points32 = points32[first:]
            stop = min(s + self.block_size, ids.size)
            Q = X[s:stop] if rows is None else X[ids[s:stop]]
            block = tail.batch_range_query(Q, eps)
            sizes = [row.size for row in block]
            pos = np.repeat(np.arange(s, stop, dtype=np.int32), sizes)
            cols = np.concatenate(block or [empty]).astype(np.int32) + first
            if unplanned is None:
                # Planned first: an unplanned column is past every row's first.
                keep = cols >= np.repeat(firsts[s:stop], sizes)
            else:
                keep = (cols >= ids[pos] - lo) | unplanned[cols]
            cols = cols[keep]
            if order is not None:
                cols = order[cols]
            positions.append(pos[keep])
            columns.append(cols + lo)
        return np.concatenate(positions), np.concatenate(columns)

    def batch_range_query_rows(self, ids: np.ndarray, eps: float) -> list[np.ndarray]:
        """:meth:`batch_range_query` of ``points[ids]``, gathered one kernel
        block at a time: a fit's plan can be every row, and ``points[ids]``
        is never copied whole."""
        self._require_built()
        ids = np.asarray(ids, dtype=np.int64)
        results: list[np.ndarray] = []
        for start in range(0, ids.size, self.block_size):
            Q = self._points[ids[start : start + self.block_size]]
            results.extend(self.batch_range_query(Q, eps))
        return results
