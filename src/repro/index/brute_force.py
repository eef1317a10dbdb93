"""Exact brute-force index over vectors, metric-pluggable.

One matrix-vector product per query. This is the "range query" primitive
of Algorithm 1 and the reference answer that every approximate index is
tested against. Also provides batched forms used by DBSCAN++ (core-point
detection over a sample) and the estimator training-set builder.

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

import numpy as np

from repro.distances.matrix import iter_cosine_range_masks, iter_distance_blocks
from repro.distances.metric import COSINE, Metric, get_metric
from repro.exceptions import InvalidParameterError
from repro.index.base import NeighborIndex

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

    def __init__(self, block_size: int = 1024, metric: str | Metric = COSINE) -> None:
        if block_size <= 0:
            raise InvalidParameterError(
                f"block_size must be positive; got {block_size}"
            )
        self.block_size = block_size
        self.metric = get_metric(metric)
        self._points: np.ndarray | None = None
        self._points32: np.ndarray | None = None
        self._max_norm = 0.0

    def build(self, X: np.ndarray) -> "BruteForceIndex":
        return self._attach(self.metric.validate(X))

    def _attach(self, points: np.ndarray) -> "BruteForceIndex":
        # Everything a query reads is derived here, once: a built index
        # is never mutated by a query, so threads may share it.
        self._points = points
        if self.metric.name == "cosine":
            self._points32 = points.astype(np.float32)
            self._max_norm = float(np.linalg.norm(points, axis=1).max())
        return self

    def range_query(self, q: np.ndarray, eps: float) -> np.ndarray:
        self._require_built()
        dists = self.metric.distance_to_many(
            np.asarray(q, dtype=np.float64), self._points
        )
        return np.flatnonzero(dists < eps)

    def range_count(self, q: np.ndarray, eps: float) -> int:
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

    def _iter_blocks(self, Q: np.ndarray):
        yield from iter_distance_blocks(
            self._as_query_matrix(Q),
            self._points,
            block_size=self.block_size,
            metric=self.metric.name,
        )

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
            for start, stop, block in self._iter_blocks(Q):
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

    def batch_knn_query(
        self, Q: np.ndarray, k: int
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Exact blocked KNN: argpartition per distance block."""
        self._require_built()
        if k <= 0:
            raise InvalidParameterError(f"k must be positive; got {k}")
        k = min(k, self.n_points)
        indices: list[np.ndarray] = []
        dists: list[np.ndarray] = []
        for _, _, block in self._iter_blocks(Q):
            if k < block.shape[1]:
                part = np.argpartition(block, k - 1, axis=1)[:, :k]
            else:
                part = np.broadcast_to(
                    np.arange(block.shape[1]), (block.shape[0], block.shape[1])
                )
            part_d = np.take_along_axis(block, part, axis=1)
            order = np.argsort(part_d, axis=1, kind="stable")
            row_idx = np.take_along_axis(part, order, axis=1)
            row_d = np.take_along_axis(part_d, order, axis=1)
            # Copy rows out so returned arrays don't pin the whole block.
            indices.extend(np.array(r, dtype=np.int64) for r in row_idx)
            dists.extend(np.array(r) for r in row_d)
        return indices, dists

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        self._require_built()
        return {"points": self._points}

    def from_arrays(self, arrays: dict) -> "BruteForceIndex":
        # Rows were validated at the original build; reattach without
        # copying so a memory-mapped matrix stays a map (the float32
        # copy is derived in memory, it is not part of the artifact).
        return self._attach(np.asarray(arrays["points"], dtype=np.float64))

    def range_count_multi_eps(
        self, Q: np.ndarray, eps_values: np.ndarray
    ) -> np.ndarray:
        """Counts for every (query row, eps value) pair.

        Returns shape ``(len(Q), len(eps_values))``. Used by the estimator
        training-set builder, which needs counts at many radii per query.
        """
        self._require_built()
        eps_values = np.asarray(eps_values, dtype=np.float64)
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        counts = np.empty((Q.shape[0], eps_values.size), dtype=np.int64)
        for start, stop, block in self._iter_blocks(Q):
            for j, radius in enumerate(eps_values):
                counts[start:stop, j] = np.count_nonzero(block < radius, axis=1)
        return counts
