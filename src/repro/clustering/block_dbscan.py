"""BLOCK-DBSCAN (Chen et al. 2021), adapted to angular distance.

Like KNN-BLOCK DBSCAN this method reasons about *inner core blocks* —
balls of half the clustering radius in which every point is provably
core — but it discovers them with **exact range queries** instead of
KNN queries, and it approximates the block-merge test with a bounded
number of alternating nearest-point iterations (the paper's ``RNT``
parameter, default 10).

The original method answers its range queries on a cover tree, and the
paper sweeps the tree's basis (1.1-5) as this baseline's trade-off
knob. An exact tree returns the same neighbourhoods whatever its basis,
so the basis only ever moved time; and metric trees do not prune at the
768-d embeddings the paper targets. The queries therefore run on the
shared brute-force index, which gives the same labels faster.

Algorithm outline:

1. repeatedly pick an unvisited point ``p`` and query its half-radius
   ball; if it holds at least ``tau`` points it is an inner core block
   (all members core, no more queries for them), otherwise ``p`` alone
   is core exactly when its full-radius neighbourhood holds ``tau``;
2. merge blocks whose approximate minimum inter-block distance falls
   below ``eps`` (alternating projection, at most ``RNT`` rounds — may
   miss borderline merges, which is the method's quality approximation);
3. attach border points to their nearest core point within ``eps``.

Ball arithmetic is Euclidean-on-the-sphere via Equation 1 (a half-radius
Euclidean ball guarantees pairwise cosine distance below ``eps``; the
cosine "half" radius is ``eps / 4`` because the conversion is quadratic).
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
from repro.distances import (
    check_unit_norm,
    euclidean_distance_to_many,
    euclidean_from_cosine,
    iter_distance_blocks,
    nearest_in_blocks,
)
from repro.engine_config import ExecutionConfig
from repro.exceptions import InvalidParameterError

__all__ = ["BlockDBSCAN"]


class BlockDBSCAN(Clusterer):
    """Block-based approximate DBSCAN over exact range queries.

    Parameters
    ----------
    eps, tau:
        DBSCAN density parameters (cosine distance).
    rnt:
        Maximum iterations when approximating the minimum distance
        between two inner core blocks (paper default 10).
    execution:
        Execution policy. Which seeds get queried depends on earlier
        balls (visited members are skipped), so nothing is planned
        ahead: each seed is one single-row query on the index the
        shared engine seam builds, which buys sharding. The algorithm
        visits each seed at most once, so no query repeats.
    """

    algo_name = "block-dbscan"

    def __init__(
        self,
        eps: float,
        tau: int,
        rnt: int = 10,
        execution: ExecutionConfig | None = None,
    ) -> None:
        super().__init__(eps, tau, execution=execution)
        if rnt < 1:
            raise InvalidParameterError(f"rnt must be >= 1; got {rnt}")
        self.rnt = int(rnt)

    def model_params(self) -> dict:
        params = super().model_params()
        params.update(rnt=self.rnt)
        return params

    def fit(self, X: np.ndarray) -> ClusteringResult:
        X = check_unit_norm(X)
        n = X.shape[0]
        # Cosine threshold whose Euclidean equivalent is half the radius.
        half_eps_cos = self.eps / 4.0
        r_e = euclidean_from_cosine(self.eps)

        visited = np.zeros(n, dtype=bool)
        core_mask = np.zeros(n, dtype=bool)
        unit_of_point = np.full(n, -1, dtype=np.int64)
        blocks: list[np.ndarray] = []
        n_range_queries = 0

        # Seeds depend on what earlier seeds covered, so there is no plan:
        # one single-row call per seed.
        with self._engine(X) as index:
            for p in range(n):
                if visited[p]:
                    continue
                visited[p] = True
                # One full-radius query per seed; the half-radius ball is
                # the distance-filtered subset (same information as the
                # original half-then-full query pair, at half the
                # queries).
                neighbors = index.batch_range_query_rows(np.array([p]), self.eps)[0]
                n_range_queries += 1
                ball = neighbors[1.0 - X[neighbors] @ X[p] < half_eps_cos]
                if ball.size >= self.tau:
                    # Inner core block: pairwise Euclidean < r_e, all core.
                    fresh = ball[~core_mask[ball]]
                    core_mask[ball] = True
                    visited[ball] = True
                    unit_id = len(blocks)
                    blocks.append(ball)
                    unit_of_point[fresh] = unit_id
                elif neighbors.size >= self.tau:
                    # Sparse region: p alone is core (no block around it).
                    core_mask[p] = True
                    unit_id = len(blocks)
                    blocks.append(np.array([p], dtype=np.int64))
                    unit_of_point[p] = unit_id

            stats: dict[str, int | float] = {
                "range_queries": n_range_queries,
                "n_core": int(core_mask.sum()),
                "n_blocks": len(blocks),
            }
            stats.update(index.stats())

        labels = self._merge_and_assign(X, core_mask, unit_of_point, blocks, r_e)
        return ClusteringResult(
            labels=canonicalize_labels(labels),
            core_mask=core_mask,
            stats=stats,
        )

    # ------------------------------------------------------------------
    # Block merging
    # ------------------------------------------------------------------

    def _blocks_connected(
        self, X: np.ndarray, block_a: np.ndarray, block_b: np.ndarray, r_e: float
    ) -> bool:
        """Approximate min-distance test with at most ``rnt`` iterations.

        Alternating projection: hop between the blocks following nearest
        members. Converges to a local minimum of the inter-block
        distance; with few iterations borderline connections can be
        missed (the documented approximation of BLOCK-DBSCAN). Singleton
        "blocks" degenerate to exact point-to-block distance.
        """
        pts_a = X[block_a]
        pts_b = X[block_b]
        center_b = pts_b.mean(axis=0)
        a = int(np.argmin(euclidean_distance_to_many(center_b, pts_a)))
        prev_a = -1
        for _ in range(self.rnt):
            dists_b = euclidean_distance_to_many(pts_a[a], pts_b)
            b = int(np.argmin(dists_b))
            if dists_b[b] < r_e:
                return True
            dists_a = euclidean_distance_to_many(pts_b[b], pts_a)
            a_next = int(np.argmin(dists_a))
            if dists_a[a_next] < r_e:
                return True
            if a_next == prev_a or a_next == a:
                break  # converged to a local minimum
            prev_a, a = a, a_next
        return False

    def _merge_and_assign(
        self,
        X: np.ndarray,
        core_mask: np.ndarray,
        unit_of_point: np.ndarray,
        blocks: list[np.ndarray],
        r_e: float,
    ) -> np.ndarray:
        n = X.shape[0]
        labels = np.full(n, NOISE, dtype=np.int64)
        if not blocks:
            return labels
        uf = UnionFind(len(blocks))
        # Overlapping blocks share points: union them outright.
        for unit_id, members in enumerate(blocks):
            for q in members:
                other = unit_of_point[q]
                if other >= 0 and other != unit_id:
                    uf.union(unit_id, other)
        centers = np.stack([X[m].mean(axis=0) for m in blocks])
        radii = np.array(
            [
                float(euclidean_distance_to_many(c, X[m]).max())
                for c, m in zip(centers, blocks)
            ]
        )
        # Candidate pairs by center-distance bound, then RNT refinement.
        for i in range(len(blocks)):
            center_dists = euclidean_distance_to_many(centers[i], centers[i + 1 :])
            bounds = r_e + radii[i] + radii[i + 1 :]
            for offset in np.flatnonzero(center_dists <= bounds):
                j = i + 1 + int(offset)
                if uf.connected(i, j):
                    continue
                if self._blocks_connected(X, blocks[i], blocks[j], r_e):
                    uf.union(i, j)
        core_idx = np.flatnonzero(core_mask)
        for point in core_idx:
            labels[point] = uf.find(int(unit_of_point[point]))
        # Borders: nearest core point within eps (cosine).
        non_core = np.flatnonzero(~core_mask)
        if non_core.size and core_idx.size:
            nearest, nearest_dist = nearest_in_blocks(
                iter_distance_blocks(X[non_core], X[core_idx]), non_core.size
            )
            ok = nearest_dist < self.eps
            labels[non_core[ok]] = labels[core_idx][nearest[ok]]
        return labels
