"""rho-approximate DBSCAN (Gan & Tao, SIGMOD 2015 / TODS 2017).

Relaxes DBSCAN's density predicate by a multiplicative factor
``1 + rho``: the neighbor count used for the core test may include any
points between ``eps`` and ``eps * (1 + rho)``, and two core points may
be connected at up to ``eps * (1 + rho)``. In low dimensions this makes
DBSCAN run in near-linear time via a grid; in the high-dimensional
regime this paper studies the grid degenerates (every point its own
cell, candidate cells found by scanning), making the method *slower*
than plain DBSCAN — the exact effect Table 4 of the paper documents.
See :mod:`repro.index.grid` for the honest high-d adaptation.

Steps:

1. every cell with at least ``tau`` points is all-core (cell diagonal is
   ``eps``, so its points are pairwise within ``eps``);
2. remaining points get an approximate count obeying the rho sandwich;
3. cells containing core points merge when core points of the two cells
   are within ``eps`` (cells entirely within ``eps (1 + rho)`` of each
   other may merge without point-level checks — the approximation);
4. border points attach to any core point within ``eps``.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.base import (
    NOISE,
    Clusterer,
    ClusteringResult,
    canonicalize_labels,
)
from repro.clustering.union_find import UnionFind
from repro.distances import check_unit_norm, euclidean_from_cosine
from repro.engine_config import ExecutionConfig
from repro.exceptions import InvalidParameterError
from repro.index.grid import GridIndex

__all__ = ["RhoApproxDBSCAN"]


class RhoApproxDBSCAN(Clusterer):
    """Grid-based approximate DBSCAN with a rho-relaxed density predicate.

    Parameters
    ----------
    eps, tau:
        DBSCAN density parameters (cosine distance).
    rho:
        Approximation factor (> 0). The paper sets 1.0 in its evaluation
        (after finding the 0.001-0.1 range of the original work too slow
        in high dimensions).
    execution:
        Execution policy. The method is *defined* on its grid, which it
        builds itself: the rho-sandwich counts and cell merging are grid
        calls. The exact border-attachment range queries are ordinary
        eps-range queries and go through the shared brute-force engine
        like every other method's, sharded when ``execution.sharding``
        is set. Both phases run blockwise (the cell-center distance
        matrix is one blocked product instead of a per-point loop).
    """

    algo_name = "rho-approx"

    def __init__(
        self,
        eps: float,
        tau: int,
        rho: float = 1.0,
        execution: ExecutionConfig | None = None,
    ) -> None:
        super().__init__(eps, tau, execution=execution)
        if rho <= 0:
            raise InvalidParameterError(f"rho must be positive; got {rho}")
        self.rho = float(rho)

    def model_params(self) -> dict:
        params = super().model_params()
        params.update(rho=self.rho)
        return params

    def fit(self, X: np.ndarray) -> ClusteringResult:
        X = check_unit_norm(X)
        n = X.shape[0]
        grid = GridIndex(self.eps, self.rho).build(X)
        r_e = euclidean_from_cosine(self.eps)
        r_outer = r_e * (1.0 + self.rho)

        core_mask = np.zeros(n, dtype=bool)
        n_count_queries = 0
        # Rule 1: dense cells are all-core (pairwise within the diagonal).
        sizes = grid.cell_sizes()
        for cell in np.flatnonzero(sizes >= self.tau):
            core_mask[grid.cell_points[cell]] = True
        # Rule 2: everyone else gets an approximate count. The rho
        # sandwich is a grid-level contract, so these are grid calls.
        candidates = np.flatnonzero(~core_mask)
        n_count_queries += int(candidates.size)
        if candidates.size:
            counts = grid.batch_approx_range_count(X[candidates])
            core_mask[candidates[counts >= self.tau]] = True

        labels = np.full(n, NOISE, dtype=np.int64)
        core_cells = [
            cell
            for cell in range(grid.n_cells)
            if bool(core_mask[grid.cell_points[cell]].any())
        ]
        stats: dict[str, int | float] = {
            "count_queries": n_count_queries,
            "n_cells": grid.n_cells,
        }
        # The exact border queries are ordinary eps-range queries, so
        # they run on the shared brute-force engine seam.
        with self._engine(X) as index:
            if core_cells:
                labels = self._merge_cells(
                    X, grid, core_mask, core_cells, r_e, r_outer, index
                )
            stats["n_core"] = int(core_mask.sum())
            # One exact border query per non-core point, once a core exists.
            stats["range_queries"] = n - stats["n_core"] if core_cells else 0
            stats.update(index.stats())
        return ClusteringResult(
            labels=canonicalize_labels(labels),
            core_mask=core_mask,
            stats=stats,
        )

    def _merge_cells(
        self,
        X: np.ndarray,
        grid: GridIndex,
        core_mask: np.ndarray,
        core_cells: list[int],
        r_e: float,
        r_outer: float,
        index,
    ) -> np.ndarray:
        n = X.shape[0]
        labels = np.full(n, NOISE, dtype=np.int64)
        cell_rank = {cell: i for i, cell in enumerate(core_cells)}
        uf = UnionFind(len(core_cells))
        core_members = {
            cell: grid.cell_points[cell][core_mask[grid.cell_points[cell]]]
            for cell in core_cells
        }
        for cell in core_cells:
            candidates = grid.cells_within(cell, r_outer)
            for other in candidates:
                other = int(other)
                if other == cell or other not in cell_rank:
                    continue
                if uf.connected(cell_rank[cell], cell_rank[other]):
                    continue
                if self._cells_connected(
                    X, core_members[cell], core_members[other], r_e, r_outer
                ):
                    uf.union(cell_rank[cell], cell_rank[other])
        for cell in core_cells:
            cluster = uf.find(cell_rank[cell])
            labels[core_members[cell]] = cluster
        # Borders: any core point within eps adopts the point. These are
        # exact eps-range queries; each border candidate is queried
        # exactly once, so the whole set runs in one call.
        border_candidates = np.flatnonzero(~core_mask)
        neighborhoods = index.batch_range_query_rows(border_candidates, self.eps)
        for p, neighbors in zip(border_candidates.tolist(), neighborhoods):
            core_neighbors = neighbors[core_mask[neighbors]]
            if core_neighbors.size:
                labels[p] = labels[core_neighbors[0]]
        return labels

    def _cells_connected(
        self,
        X: np.ndarray,
        members_a: np.ndarray,
        members_b: np.ndarray,
        r_e: float,
        r_outer: float,
    ) -> bool:
        """Core-connectivity between two cells' core points.

        The rho relaxation permits connecting anything within
        ``eps (1 + rho)``; we connect exactly when the minimum core-core
        Euclidean distance is below ``r_e`` and *approximately* (allowed
        by the guarantee) when it is below ``r_outer`` and the cheap
        wholesale bound already proves it.
        """
        pts_a = X[members_a]
        pts_b = X[members_b]
        diff_sq = (
            np.einsum("ij,ij->i", pts_a, pts_a)[:, None]
            - 2.0 * (pts_a @ pts_b.T)
            + np.einsum("ij,ij->i", pts_b, pts_b)[None, :]
        )
        min_dist = float(np.sqrt(max(diff_sq.min(), 0.0)))
        if min_dist < r_e:
            return True
        # Approximate regime: connect when everything is within r_outer.
        return bool(np.sqrt(np.clip(diff_sq, 0.0, None)).max() < r_outer)
