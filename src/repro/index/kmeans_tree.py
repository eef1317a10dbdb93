"""FLANN-style hierarchical k-means tree for approximate KNN.

This is the KNN substrate of KNN-BLOCK DBSCAN. The paper controls two of
its parameters: the *branching factor* (set to 10, varied 3-20 in the
trade-off study) and the *ratio of leaves to check* (set to 0.6, varied
0.001-0.3), which is exactly FLANN's "checks" knob expressed as a
fraction of leaves.

Construction recursively partitions the points with Lloyd's k-means
(``branching`` centers per node) until a node holds at most ``leaf_size``
points. Search is best-first: it always descends into the child whose
center is closest to the query while pushing siblings onto a priority
queue, stopping once the allowed number of leaves has been examined.
Checking 100% of leaves makes the search exhaustive (exact).

Descent runs in the Euclidean metric on the unit sphere (Equation 1 of
the paper); results are cosine distances. The tree answers KNN queries
only: range queries belong to :class:`~repro.index.BruteForceIndex`.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.distances import (
    check_unit_norm,
    euclidean_distance_matrix,
    euclidean_distance_to_many,
)
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.rng import ensure_rng

__all__ = ["KMeansTree"]

#: Lloyd iterations per node split; FLANN's default is also small.
_KMEANS_ITERATIONS = 8


class _Node:
    """One tree node: either an internal split or a leaf with points."""

    __slots__ = ("center", "children", "child_centers", "point_indices", "leaf_points")

    def __init__(self, center: np.ndarray) -> None:
        self.center = center
        self.children: list[_Node] | None = None
        self.child_centers: np.ndarray | None = None  # stacked once at build
        self.point_indices: np.ndarray | None = None
        self.leaf_points: np.ndarray | None = None  # contiguous copy at leaves

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class KMeansTree:
    """Approximate KNN index built from hierarchical k-means.

    Parameters
    ----------
    branching:
        Number of k-means centers per internal node (>= 2).
    checks_ratio:
        Fraction of leaves the search may examine, in (0, 1]. Higher is
        more accurate and slower; 1.0 is exact.
    leaf_size:
        Maximum points per leaf.
    seed:
        Seed for k-means center initialization.
    """

    def __init__(
        self,
        branching: int = 10,
        checks_ratio: float = 0.6,
        leaf_size: int = 32,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if branching < 2:
            raise InvalidParameterError(f"branching must be >= 2; got {branching}")
        if not 0.0 < checks_ratio <= 1.0:
            raise InvalidParameterError(
                f"checks_ratio must lie in (0, 1]; got {checks_ratio}"
            )
        if leaf_size < 1:
            raise InvalidParameterError(f"leaf_size must be >= 1; got {leaf_size}")
        self.branching = int(branching)
        self.checks_ratio = float(checks_ratio)
        self.leaf_size = int(leaf_size)
        self.seed = seed
        self._points: np.ndarray | None = None
        self._root: _Node | None = None
        self._n_leaves = 0

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes after :meth:`build`."""
        return self._n_leaves

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def build(self, X: np.ndarray) -> "KMeansTree":
        self._points = check_unit_norm(X)
        self._n_leaves = 0
        all_indices = np.arange(self._points.shape[0], dtype=np.int64)
        self._root = self._build_node(all_indices, ensure_rng(self.seed))
        return self

    def _build_node(self, indices: np.ndarray, rng: np.random.Generator) -> _Node:
        pts = self._points[indices]
        center = pts.mean(axis=0)
        node = _Node(center)
        if indices.size <= max(self.leaf_size, self.branching):
            node.point_indices = indices
            node.leaf_points = np.ascontiguousarray(pts)
            self._n_leaves += 1
            return node
        assignments, centers = self._lloyd(pts, rng)
        occupied = [
            np.flatnonzero(assignments == cluster_id)
            for cluster_id in range(centers.shape[0])
        ]
        occupied = [members for members in occupied if members.size]
        if len(occupied) <= 1:
            # Degenerate split (e.g. duplicated points): fall back to leaf
            # *before* recursing, or identical inputs would loop forever.
            node.point_indices = indices
            node.leaf_points = np.ascontiguousarray(pts)
            self._n_leaves += 1
            return node
        node.children = [self._build_node(indices[m], rng) for m in occupied]
        node.child_centers = np.stack([c.center for c in node.children])
        return node

    def _lloyd(
        self, pts: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """A few Lloyd iterations; returns (assignments, centers)."""
        k = min(self.branching, pts.shape[0])
        seeds = rng.choice(pts.shape[0], size=k, replace=False)
        centers = pts[seeds].copy()
        assignments = np.zeros(pts.shape[0], dtype=np.int64)
        for _ in range(_KMEANS_ITERATIONS):
            dists = euclidean_distance_matrix(pts, centers)
            new_assignments = dists.argmin(axis=1)
            if np.array_equal(new_assignments, assignments):
                assignments = new_assignments
                break
            assignments = new_assignments
            for cluster_id in range(k):
                member_mask = assignments == cluster_id
                if member_mask.any():
                    centers[cluster_id] = pts[member_mask].mean(axis=0)
                else:
                    # Re-seed empty clusters on the farthest point.
                    farthest = dists.min(axis=1).argmax()
                    centers[cluster_id] = pts[farthest]
        return assignments, centers

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------

    def _max_leaf_checks(self) -> int:
        return max(1, math.ceil(self.checks_ratio * self._n_leaves))

    def _require_built(self) -> None:
        if self._root is None:
            raise NotFittedError("KMeansTree has not been built yet")

    def _collect_candidates(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Best-first traversal; returns (indices, cosine distances) from
        the checked leaves.

        Cosine distances are computed per leaf against the contiguous
        ``leaf_points`` copy (no per-query gather of dataset rows).
        """
        assert self._root is not None
        queue: list[tuple[float, int, _Node]] = []
        tiebreak = 0
        root_dist = float(np.linalg.norm(q - self._root.center))
        heapq.heappush(queue, (root_dist, tiebreak, self._root))
        budget = self._max_leaf_checks()
        collected_idx: list[np.ndarray] = []
        collected_dist: list[np.ndarray] = []
        while queue and budget > 0:
            _, _, node = heapq.heappop(queue)
            if node.is_leaf:
                collected_idx.append(node.point_indices)
                # Clamp at 0 like every cosine kernel.
                collected_dist.append(np.maximum(0.0, 1.0 - node.leaf_points @ q))
                budget -= 1
                continue
            child_dists = euclidean_distance_to_many(q, node.child_centers)
            for child, child_dist in zip(node.children, child_dists):
                tiebreak += 1
                heapq.heappush(queue, (float(child_dist), tiebreak, child))
        if not collected_idx:
            return np.empty(0, dtype=np.int64), np.empty(0)
        return np.concatenate(collected_idx), np.concatenate(collected_dist)

    def knn_query(self, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Approximate k nearest neighbors; exact when ``checks_ratio=1``."""
        self._require_built()
        if k <= 0:
            raise InvalidParameterError(f"k must be positive; got {k}")
        q = np.asarray(q, dtype=np.float64)
        candidates, dists = self._collect_candidates(q)
        if candidates.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        k = min(k, candidates.size)
        nearest = np.argpartition(dists, k - 1)[:k]
        order = np.argsort(dists[nearest], kind="stable")
        idx = candidates[nearest[order]]
        return idx, dists[nearest[order]]
