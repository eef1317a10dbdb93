"""Abstract interface shared by the range-query indexes."""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import InvalidParameterError, NotFittedError

__all__ = [
    "NeighborIndex",
    "check_plan_rows",
    "check_positive_int",
    "pair_counts",
]


def check_positive_int(name: str, value) -> None:
    """Reject anything but an ``int`` of at least 1 (a bool is not one).

    Sizes and caps are checked strictly, never coerced: ``2.5`` rows
    per block would otherwise fail much later, or silently round.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(
            f"{name} must be an int; got {type(value).__name__}"
        )
    if value < 1:
        raise InvalidParameterError(f"{name} must be >= 1; got {value}")


def check_plan_rows(rows, n_points: int) -> np.ndarray:
    """``rows`` as int64 if it is a strictly ascending set of row ids below
    ``n_points``; anything else is rejected."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1)
    if rows.size and not (
        rows[0] >= 0 and rows[-1] < n_points and np.all(rows[1:] > rows[:-1])
    ):
        raise InvalidParameterError(
            f"rows must be strictly ascending row ids in [0, {n_points})"
        )
    return rows


class NeighborIndex(abc.ABC):
    """A point set supporting distance-threshold (range) queries.

    Implementations store the dataset at ``build`` time and answer queries
    against it: :class:`~repro.index.BruteForceIndex` directly, and
    :class:`~repro.index.ShardedIndex` by fanning each query across
    per-shard inner indexes.
    """

    _points: np.ndarray | None = None

    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        return 0 if self._points is None else int(self._points.shape[0])

    @property
    def points(self) -> np.ndarray:
        """The indexed point matrix, shape ``(n_points, dim)``.

        Raises :class:`NotFittedError` before :meth:`build`.
        """
        if self._points is None:
            raise NotFittedError(f"{type(self).__name__} has not been built yet")
        return self._points

    @abc.abstractmethod
    def build(self, X: np.ndarray) -> "NeighborIndex":
        """Index the rows of ``X`` (unit-normalized) and return ``self``."""

    def stats(self) -> dict[str, int]:
        """Counters a fit merges into its result's ``stats``; none here."""
        return {}

    def close(self) -> None:
        """Release what the index holds beyond memory; nothing here."""

    # ------------------------------------------------------------------
    # Batched queries: the API every clusterer's fit goes through
    # (Clusterer._engine). The neighborhood of a query is the paper's
    # N = {Q | d(P, Q) < eps}: strict, so a query equal to an indexed
    # point returns that point itself.
    # ------------------------------------------------------------------

    @staticmethod
    def _as_query_matrix(Q: np.ndarray) -> np.ndarray:
        """Normalize a query batch to 2-d float64 (a 1-d row is one query)."""
        Q = np.asarray(Q, dtype=np.float64)
        if Q.ndim == 1:
            Q = Q[None, :]
        return Q

    @abc.abstractmethod
    def batch_range_query(self, Q: np.ndarray, eps: float) -> list[np.ndarray]:
        """Neighbor index arrays for every row of ``Q`` at threshold ``eps``.

        Row ``i`` holds the indexed points with distance to ``Q[i]``
        strictly below ``eps``. An empty batch (shape ``(0, dim)``)
        returns an empty list.
        """

    # Row-id forms: a fit only ever queries its own indexed points, so
    # it names them by row. An index whose points already sit elsewhere
    # (a remote worker fleet) ships the ids, not the vectors.

    def batch_range_query_rows(self, ids: np.ndarray, eps: float) -> list[np.ndarray]:
        """:meth:`batch_range_query` of the indexed points ``points[ids]``."""
        return self.batch_range_query(self.points[ids], eps)

    def range_pairs(
        self, eps: float, rows: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every pair ``(i, j)`` of indexed points within ``eps`` with ``i`` in
        ``rows`` and ``j`` not in ``rows`` or ``j >= i``, each once, as int32
        ``(rows, cols)`` grouped by ``i`` in ascending order.

        ``rows`` (strictly ascending row ids) defaults to every row: the
        self-join, the pairs ``i <= j`` in row-major order. A pair of two
        rows is there once, at its lower row; a diagonal pair ``(i, i)``
        is there when the kernel finds ``d(P, P) < eps``.

        Derived here from :meth:`batch_range_query_rows` over ``rows``.
        """
        self._require_built()
        n = self.n_points
        ids = np.arange(n) if rows is None else check_plan_rows(rows, n)
        neighborhoods = self.batch_range_query_rows(ids, eps)
        sizes = [row.size for row in neighborhoods]
        pair_rows = np.repeat(ids.astype(np.int32), sizes)
        cols = np.concatenate(neighborhoods or [np.empty(0)]).astype(np.int32)
        outside = np.ones(n, dtype=bool)
        outside[ids] = False
        keep = (cols >= pair_rows) | outside[cols]
        return pair_rows[keep], cols[keep]

    def _require_built(self) -> None:
        if self._points is None:
            raise NotFittedError(f"{type(self).__name__} has not been built yet")


def pair_counts(pairs: tuple[np.ndarray, np.ndarray], n_points: int) -> np.ndarray:
    """Neighbourhood sizes of the rows of a :meth:`NeighborIndex.range_pairs`
    join, as int64 of length ``n_points``.

    DBSCAN's mirror rule: a pair counts toward both of its points, a
    diagonal pair ``(i, i)`` (the kernel's ``d(P, P) < eps``) once. The
    size is exact at the join's ``rows``; a row outside them counts
    only its pairs with ``rows``.
    """
    rows, cols = pairs
    return np.bincount(rows, minlength=n_points) + np.bincount(
        cols[cols != rows], minlength=n_points
    )
