"""Grid of cells of side ``eps / sqrt(d)``: rho-approximate DBSCAN's cells.

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

The grid is rho-approximate DBSCAN's private cell structure, not a
range-query engine: the method's exact border queries go through the
brute-force engine like every other method's, which answers them with
the same neighbours far faster once nearly every point owns its own
cell (``docs/engine.md``).
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
        self._cell_points: list[np.ndarray] = []  # cell id -> point indices
        self._cell_centers: np.ndarray | None = None  # geometric center of members

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def build(self, X: np.ndarray) -> "GridIndex":
        X = check_unit_norm(X)
        self._points = X
        side = self._r_euc / math.sqrt(X.shape[1])
        keys = np.floor(X / side).astype(np.int64)
        cell_ids: dict[tuple, int] = {}
        members: list[list[int]] = []
        for i, key_row in enumerate(keys):
            key = tuple(key_row)
            cell = cell_ids.get(key)
            if cell is None:
                cell = len(members)
                cell_ids[key] = cell
                members.append([])
            members[cell].append(i)
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
    def n_cells(self) -> int:
        """Number of non-empty cells."""
        self._require_built()
        return len(self._cell_points)

    @property
    def cell_points(self) -> list[np.ndarray]:
        """Point indices per cell (cell id is the list position)."""
        self._require_built()
        return self._cell_points

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

    def batch_approx_range_count(self, Q: np.ndarray) -> np.ndarray:
        """Approximate |N_eps(q)| for every row ``q`` of ``Q``, each obeying
        the rho sandwich guarantee.

        Row ``i`` depends on ``Q[i]`` alone; the cell-center distance
        matrix — the dominant cost when nearly every point owns its own
        cell, the high-d regime — is computed blockwise instead of one
        matrix-vector product per query.
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
