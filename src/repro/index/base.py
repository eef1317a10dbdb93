"""Abstract interface shared by the range-query indexes."""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import NotFittedError

__all__ = ["NeighborIndex"]


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
    def is_built(self) -> bool:
        """Whether :meth:`build` has run (so queries and ``points`` work).

        Hosts use this to tell an index they must still build from one
        they can query — the batched engine's shard-before-build seam
        (:func:`~repro.index.sharded.resolve_engine_index`) keys on it.
        """
        return self._points is not None

    @property
    def points(self) -> np.ndarray:
        """The indexed point matrix, shape ``(n_points, dim)``.

        The public accessor persistence relies on to save an index's
        rows. Raises :class:`NotFittedError` before :meth:`build`.
        """
        if self._points is None:
            raise NotFittedError(f"{type(self).__name__} has not been built yet")
        return self._points

    @abc.abstractmethod
    def build(self, X: np.ndarray) -> "NeighborIndex":
        """Index the rows of ``X`` (unit-normalized) and return ``self``."""

    @abc.abstractmethod
    def range_query(self, q: np.ndarray, eps: float) -> np.ndarray:
        """Indices of points with cosine distance to ``q`` strictly below ``eps``.

        Matches the paper's neighborhood definition
        ``N = {Q | d(P, Q) < eps}``; a query equal to an indexed point
        therefore returns that point itself.
        """

    @abc.abstractmethod
    def range_count(self, q: np.ndarray, eps: float) -> int:
        """Number of points within cosine distance ``eps`` of ``q``."""

    # ------------------------------------------------------------------
    # Batched queries: the engine API every clusterer goes through (see
    # repro.index.engine). Row ``i`` equals the scalar answer for Q[i].
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

        Row ``i`` of the result equals ``range_query(Q[i], eps)``. An
        empty batch (shape ``(0, dim)``) returns an empty list.
        """

    @abc.abstractmethod
    def batch_range_count(self, Q: np.ndarray, eps: float) -> np.ndarray:
        """Neighbor counts for every row of ``Q`` at threshold ``eps``."""

    def _require_built(self) -> None:
        if self._points is None:
            raise NotFittedError(f"{type(self).__name__} has not been built yet")

    # ------------------------------------------------------------------
    # Persistence
    #
    # Backends expose their built state as a flat dict of arrays
    # (to_arrays / from_arrays); the artifact layer (repro.persistence)
    # handles the manifest, checksums, and memory-mapping. from_arrays
    # must accept the arrays exactly as to_arrays produced them —
    # including read-only memory maps — without copying the point
    # matrix.
    # ------------------------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The built state as named arrays; requires :meth:`build`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support persistence"
        )

    def from_arrays(self, arrays: dict) -> "NeighborIndex":
        """Restore built state from :meth:`to_arrays` output; returns self."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support persistence"
        )

    def save(self, path) -> "NeighborIndex":
        """Persist the built index as an artifact directory at ``path``.

        See :func:`repro.persistence.save_index` for the format; load it
        back with :meth:`load` or :func:`repro.persistence.load_index`.
        """
        from repro.persistence import save_index

        save_index(self, path)
        return self

    @classmethod
    def load(cls, path, *, mmap: bool = True, verify: bool = True):
        """Load an index saved with :meth:`save`, memory-mapped by default.

        Called on a concrete class, the artifact must hold that type
        (a :class:`~repro.exceptions.PersistenceError` otherwise);
        called on :class:`NeighborIndex`, any index artifact loads.
        """
        from repro.persistence import _check_loaded_type, load_index

        index = load_index(path, mmap=mmap, verify=verify)
        if cls is not NeighborIndex:
            _check_loaded_type(index, cls, path)
        return index
