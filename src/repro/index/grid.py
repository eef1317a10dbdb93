"""Grid index with cells of side ``eps / sqrt(d)`` for rho-approximate DBSCAN.

Gan & Tao's rho-approximate DBSCAN partitions space into cells whose
diagonal equals ``eps``, so all points sharing a cell are mutually within
``eps``. In low dimensions neighbor cells are enumerated directly; in
high dimensions (the regime this paper studies) the number of adjacent
cells ``3^d`` is astronomically large while almost every point occupies
its own cell, so this implementation finds candidate cells by scanning
the non-empty cell centers with vectorized distance filters — the honest
high-dimensional adaptation, and precisely why the paper measures
rho-approximate DBSCAN to be *slower* than plain DBSCAN at d >= 200
(Table 4).

Approximate counting contract (the "rho guarantee"): for every query,

    |N_eps(q)|  <=  approx_count(q)  <=  |N_eps(1+rho)(q)|

implemented with three cell classes per query: cells entirely inside the
``eps(1+rho)`` ball are counted wholesale, cells entirely outside the
``eps`` ball are skipped, and straddling cells fall back to exact
point-level checks against ``eps``.

All geometry is in the Euclidean metric on the unit sphere; thresholds
convert from cosine via Equation 1.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distances import (
    check_unit_norm,
    euclidean_distance_to_many,
    euclidean_from_cosine,
    iter_distance_blocks,
)
from repro.exceptions import InvalidParameterError, NotFittedError

__all__ = ["GridIndex"]


class GridIndex:
    """Hash grid over unit vectors, specialized for rho-approximate DBSCAN.

    Parameters
    ----------
    eps:
        Cosine-distance radius the grid is sized for (cell diagonal equals
        the Euclidean equivalent of ``eps``).
    rho:
        Approximation factor (> 0) of rho-approximate DBSCAN.
    """

    def __init__(self, eps: float, rho: float = 1.0) -> None:
        if not 0.0 < eps <= 2.0:
            raise InvalidParameterError(f"eps must lie in (0, 2]; got {eps}")
        if rho <= 0.0:
            raise InvalidParameterError(f"rho must be positive; got {rho}")
        self.eps = float(eps)
        self.rho = float(rho)
        self._points: np.ndarray | None = None
        self._r_euc = euclidean_from_cosine(eps)
        self._side: float = 0.0
        self._cell_of_point: np.ndarray | None = None  # point -> cell id
        self._cell_points: list[np.ndarray] = []  # cell id -> point indices
        self._cell_centers: np.ndarray | None = None  # geometric center of members

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def build(self, X: np.ndarray) -> "GridIndex":
        X = check_unit_norm(X)
        self._points = X
        dim = X.shape[1]
        self._side = self._r_euc / math.sqrt(dim)
        keys = np.floor(X / self._side).astype(np.int64)
        cell_ids: dict[tuple, int] = {}
        members: list[list[int]] = []
        cell_of_point = np.empty(X.shape[0], dtype=np.int64)
        for i, key_row in enumerate(keys):
            key = tuple(key_row)
            cell = cell_ids.get(key)
            if cell is None:
                cell = len(members)
                cell_ids[key] = cell
                members.append([])
            members[cell].append(i)
            cell_of_point[i] = cell
        self._cell_of_point = cell_of_point
        self._cell_points = [np.array(m, dtype=np.int64) for m in members]
        # True bounding center/radius of the members, tighter than the
        # geometric cell center in sparse high-d grids.
        self._cell_centers = np.stack([X[m].mean(axis=0) for m in self._cell_points])
        self._cell_radii = np.array(
            [
                float(euclidean_distance_to_many(c, X[m]).max())
                for c, m in zip(self._cell_centers, self._cell_points)
            ]
        )
        return self

    def _require_built(self) -> None:
        if self._points is None:
            raise NotFittedError("GridIndex has not been built yet")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        return 0 if self._points is None else int(self._points.shape[0])

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has run (so queries and ``points`` work)."""
        return self._points is not None

    @property
    def points(self) -> np.ndarray:
        """The indexed point matrix, shape ``(n_points, dim)``.

        Same public accessor contract as
        :class:`~repro.index.base.NeighborIndex.points` (the grid is not
        a :class:`NeighborIndex` subclass, but it is a registered
        backend and needs the same seam). Raises
        :class:`NotFittedError` before :meth:`build`.
        """
        if self._points is None:
            raise NotFittedError("GridIndex has not been built yet")
        return self._points

    @property
    def n_cells(self) -> int:
        """Number of non-empty cells."""
        self._require_built()
        return len(self._cell_points)

    @property
    def cell_points(self) -> list[np.ndarray]:
        """Point indices per cell (cell id is the list position)."""
        self._require_built()
        return self._cell_points

    def cell_of(self, point_idx: int) -> int:
        """Cell id of an indexed point."""
        self._require_built()
        return int(self._cell_of_point[point_idx])

    def cell_sizes(self) -> np.ndarray:
        """Number of points per cell."""
        self._require_built()
        return np.array([m.size for m in self._cell_points], dtype=np.int64)

    # ------------------------------------------------------------------
    # Approximate counting
    # ------------------------------------------------------------------

    def _approx_count_row(self, q: np.ndarray, center_dists: np.ndarray) -> int:
        """Rho-sandwich count for one query given its center distances."""
        r = self._r_euc
        r_outer = r * (1.0 + self.rho)
        full = center_dists + self._cell_radii <= r_outer
        empty = center_dists - self._cell_radii >= r
        straddle = ~(full | empty)
        count = int(sum(self._cell_points[c].size for c in np.flatnonzero(full)))
        eps_cos = self.eps
        for c in np.flatnonzero(straddle):
            pts = self._points[self._cell_points[c]]
            dists = np.maximum(0.0, 1.0 - pts @ q)
            count += int(np.count_nonzero(dists < eps_cos))
        return count

    def approx_range_count(self, q: np.ndarray) -> int:
        """Approximate |N_eps(q)| obeying the rho sandwich guarantee."""
        self._require_built()
        q = np.asarray(q, dtype=np.float64)
        center_dists = euclidean_distance_to_many(q, self._cell_centers)
        return self._approx_count_row(q, center_dists)

    def batch_approx_range_count(self, Q: np.ndarray) -> np.ndarray:
        """Approximate counts for every row of ``Q``.

        Row ``i`` equals ``approx_range_count(Q[i])``; the cell-center
        distance matrix — the dominant cost when nearly every point owns
        its own cell, the high-d regime — is computed blockwise instead
        of one matrix-vector product per query.
        """
        self._require_built()
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        counts = np.empty(Q.shape[0], dtype=np.int64)
        for start, stop, block in iter_distance_blocks(
            Q, self._cell_centers, metric="euclidean"
        ):
            for offset, center_dists in enumerate(block):
                i = start + offset
                counts[i] = self._approx_count_row(Q[i], center_dists)
        return counts

    def _exact_query_row(
        self, q: np.ndarray, center_dists: np.ndarray, eps_cos: float, r: float
    ) -> np.ndarray:
        """Exact range query for one row given its center distances."""
        candidates = np.flatnonzero(center_dists - self._cell_radii < r)
        hits: list[np.ndarray] = []
        for c in candidates:
            member_idx = self._cell_points[c]
            dists = np.maximum(0.0, 1.0 - self._points[member_idx] @ q)
            hits.append(member_idx[dists < eps_cos])
        if not hits:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(hits))

    def exact_range_query(self, q: np.ndarray, eps: float | None = None) -> np.ndarray:
        """Exact range query via cell-level pruning (used for borders)."""
        self._require_built()
        q = np.asarray(q, dtype=np.float64)
        eps_cos = self.eps if eps is None else eps
        r = euclidean_from_cosine(eps_cos)
        center_dists = euclidean_distance_to_many(q, self._cell_centers)
        return self._exact_query_row(q, center_dists, eps_cos, r)

    def range_query(self, q: np.ndarray, eps: float | None = None) -> np.ndarray:
        """Alias of :meth:`exact_range_query` (NeighborIndex-shaped
        surface, so the grid slots behind the shared engine seam)."""
        return self.exact_range_query(q, eps)

    def range_count(self, q: np.ndarray, eps: float | None = None) -> int:
        """Exact neighbor count (NeighborIndex-shaped surface)."""
        return int(self.exact_range_query(q, eps).size)

    def batch_range_count(self, Q: np.ndarray, eps: float | None = None) -> np.ndarray:
        """Exact neighbor counts for every row of ``Q``."""
        return np.array(
            [row.size for row in self.batch_range_query(Q, eps)], dtype=np.int64
        )

    def batch_range_query(
        self, Q: np.ndarray, eps: float | None = None
    ) -> list[np.ndarray]:
        """Exact neighbor arrays for every row of ``Q`` (blockwise pruning)."""
        self._require_built()
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        eps_cos = self.eps if eps is None else eps
        r = euclidean_from_cosine(eps_cos)
        results: list[np.ndarray] = []
        for start, stop, block in iter_distance_blocks(
            Q, self._cell_centers, metric="euclidean"
        ):
            for offset, center_dists in enumerate(block):
                results.append(
                    self._exact_query_row(Q[start + offset], center_dists, eps_cos, r)
                )
        return results

    # ------------------------------------------------------------------
    # Persistence (same contract as NeighborIndex.to_arrays/from_arrays;
    # the grid is not a subclass but persists as a registered backend)
    # ------------------------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        self._require_built()
        sizes = np.array([m.size for m in self._cell_points], dtype=np.int64)
        indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(sizes)])
        if self._cell_points:
            index_flat = np.concatenate(self._cell_points)
        else:
            index_flat = np.empty(0, dtype=np.int64)
        return {
            "points": self._points,
            "cell_of_point": self._cell_of_point,
            "cell_indptr": indptr,
            "cell_index_flat": index_flat,
            "cell_centers": self._cell_centers,
            "cell_radii": self._cell_radii,
        }

    def from_arrays(self, arrays: dict) -> "GridIndex":
        points = np.asarray(arrays["points"], dtype=np.float64)
        indptr = np.asarray(arrays["cell_indptr"], dtype=np.int64)
        flat = np.asarray(arrays["cell_index_flat"], dtype=np.int64)
        self._points = points
        self._side = self._r_euc / math.sqrt(points.shape[1])
        self._cell_of_point = np.asarray(arrays["cell_of_point"], dtype=np.int64)
        self._cell_points = [
            flat[indptr[i] : indptr[i + 1]] for i in range(indptr.size - 1)
        ]
        self._cell_centers = np.asarray(arrays["cell_centers"], dtype=np.float64)
        self._cell_radii = np.asarray(arrays["cell_radii"], dtype=np.float64)
        return self

    def save(self, path) -> "GridIndex":
        """Persist the built grid; see :func:`repro.persistence.save_index`."""
        from repro.persistence import save_index

        save_index(self, path)
        return self

    @classmethod
    def load(cls, path, *, mmap: bool = True, verify: bool = True) -> "GridIndex":
        """Load a grid saved with :meth:`save`, memory-mapped by default."""
        from repro.persistence import _check_loaded_type, load_index

        return _check_loaded_type(load_index(path, mmap=mmap, verify=verify), cls, path)

    def cells_within(self, cell: int, max_dist_euc: float) -> np.ndarray:
        """Cells whose member balls could contain a point within
        ``max_dist_euc`` (Euclidean) of some point in ``cell``.

        Uses center distance minus both radii as the lower bound; the
        caller refines with point-level checks.
        """
        self._require_built()
        center = self._cell_centers[cell]
        center_dists = euclidean_distance_to_many(center, self._cell_centers)
        lower_bounds = center_dists - self._cell_radii - self._cell_radii[cell]
        return np.flatnonzero(lower_bounds <= max_dist_euc)
