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

Like the cover tree, it operates in the Euclidean metric on the unit
sphere (Equation 1 of the paper) and exposes cosine distances.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.distances import (
    check_unit_norm,
    euclidean_distance_matrix,
    euclidean_distance_to_many,
    euclidean_from_cosine,
)
from repro.exceptions import InvalidParameterError
from repro.index.base import (
    NeighborIndex,
    expand_csr,
    group_hit_pairs,
    grouped_pair_distances,
)
from repro.rng import ensure_rng

__all__ = ["KMeansTree"]

#: Lloyd iterations per node split; FLANN's default is also small.
_KMEANS_ITERATIONS = 8


class _Node:
    """One tree node: either an internal split or a leaf with points."""

    __slots__ = (
        "center",
        "radius",
        "children",
        "child_centers",
        "point_indices",
        "leaf_points",
    )

    def __init__(self, center: np.ndarray) -> None:
        self.center = center
        self.radius = 0.0  # max Euclidean distance from center to any point below
        self.children: list[_Node] | None = None
        self.child_centers: np.ndarray | None = None  # stacked once at build
        self.point_indices: np.ndarray | None = None
        self.leaf_points: np.ndarray | None = None  # contiguous copy at leaves

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class KMeansTree(NeighborIndex):
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
        # Remembered for the sharded backend's rebuild spec (a live
        # Generator seed marks the tree as non-reconstructible).
        self.seed = seed
        self._rng = ensure_rng(seed)
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
        self._root = self._build_node(all_indices)
        self._freeze()
        return self

    def _freeze(self) -> None:
        """Flatten the node tree into arrays for the batched traversal."""
        order: list[_Node] = [self._root]
        i = 0
        while i < len(order):
            node = order[i]
            i += 1
            if node.children:
                order.extend(node.children)
        self._np_nodes = order
        self._np_centers = np.stack([n.center for n in order])
        self._np_center_sq = np.einsum("ij,ij->i", self._np_centers, self._np_centers)
        self._np_radius = np.array([n.radius for n in order])
        self._np_is_leaf = np.array([n.is_leaf for n in order], dtype=bool)
        index_of = {id(n): k for k, n in enumerate(order)}
        counts = np.array(
            [len(n.children) if n.children else 0 for n in order], dtype=np.int64
        )
        self._np_child_offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
        )
        self._np_child_flat = np.array(
            [index_of[id(c)] for n in order for c in (n.children or [])],
            dtype=np.int64,
        )

    def _build_node(self, indices: np.ndarray) -> _Node:
        pts = self._points[indices]
        center = pts.mean(axis=0)
        node = _Node(center)
        node.radius = float(euclidean_distance_to_many(center, pts).max())
        if indices.size <= max(self.leaf_size, self.branching):
            node.point_indices = indices
            node.leaf_points = np.ascontiguousarray(pts)
            self._n_leaves += 1
            return node
        assignments, centers = self._lloyd(pts)
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
        node.children = [self._build_node(indices[members]) for members in occupied]
        node.child_centers = np.stack([c.center for c in node.children])
        return node

    def _lloyd(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A few Lloyd iterations; returns (assignments, centers)."""
        k = min(self.branching, pts.shape[0])
        seeds = self._rng.choice(pts.shape[0], size=k, replace=False)
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

    def _collect_candidates(
        self, q: np.ndarray, prune_radius: float | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Best-first traversal; returns (indices, cosine distances) from
        the checked leaves.

        Cosine distances are computed per leaf against the contiguous
        ``leaf_points`` copy (no per-query gather of dataset rows).
        ``prune_radius`` (Euclidean) additionally skips nodes whose ball
        cannot intersect the query ball — used by range queries, where it
        makes a full-checks traversal exact.
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
            dist, _, node = heapq.heappop(queue)
            if prune_radius is not None and dist > prune_radius + node.radius:
                continue
            if node.is_leaf:
                collected_idx.append(node.point_indices)
                # Clamp at 0 like every cosine kernel, so the scalar and
                # batched leaf blocks agree exactly on zero distances.
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
        candidates, dists = self._collect_candidates(q, prune_radius=None)
        if candidates.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0)
        k = min(k, candidates.size)
        nearest = np.argpartition(dists, k - 1)[:k]
        order = np.argsort(dists[nearest], kind="stable")
        idx = candidates[nearest[order]]
        return idx, dists[nearest[order]]

    def range_query(self, q: np.ndarray, eps: float) -> np.ndarray:
        """Range query over the checked leaves; exact when ``checks_ratio=1``."""
        self._require_built()
        q = np.asarray(q, dtype=np.float64)
        r = euclidean_from_cosine(min(max(eps, 0.0), 2.0))
        candidates, dists = self._collect_candidates(q, prune_radius=r)
        if candidates.size == 0:
            return np.empty(0, dtype=np.int64)
        hits = candidates[dists < eps]
        return np.sort(hits)

    # ------------------------------------------------------------------
    # Batched queries (vectorized level-synchronous traversal)
    # ------------------------------------------------------------------

    def _batch_reachable_leaves(
        self, Q: np.ndarray, r: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """All (query row, leaf node id) pairs the pruned traversal reaches.

        Level-synchronous counterpart of :meth:`_collect_candidates` with
        a ``prune_radius``: a leaf is reachable iff neither it nor any
        ancestor is pruned by the ball-intersection bound
        ``d(q, center) > r + radius``. Visit *order* is irrelevant here —
        the caller handles the leaf-check budget.
        """
        n_queries = Q.shape[0]
        Q_sq = np.einsum("ij,ij->i", Q, Q)
        nodes = np.zeros(1, dtype=np.int64)  # node 0 is the root
        q_flat = np.arange(n_queries, dtype=np.int64)
        q_offsets = np.array([0, n_queries], dtype=np.int64)
        # Squared distances against squared bounds (monotone, same pairs
        # pass) skip a sqrt over every frontier pair.
        dists = grouped_pair_distances(
            Q,
            q_flat,
            q_offsets,
            self._np_centers[nodes],
            Q_sq=Q_sq,
            C_sq=self._np_center_sq[nodes],
            squared=True,
        )
        leaf_qs: list[np.ndarray] = []
        leaf_ns: list[np.ndarray] = []
        while q_flat.size:
            col_of_entry = np.repeat(
                np.arange(nodes.size, dtype=np.int64), np.diff(q_offsets)
            )
            bound = r + self._np_radius[nodes[col_of_entry]]
            keep = dists <= bound * bound
            q_flat = q_flat[keep]
            col_of_entry = col_of_entry[keep]
            at_leaf = self._np_is_leaf[nodes[col_of_entry]]
            if at_leaf.any():
                leaf_qs.append(q_flat[at_leaf])
                leaf_ns.append(nodes[col_of_entry[at_leaf]])
            q_flat = q_flat[~at_leaf]
            col_of_entry = col_of_entry[~at_leaf]
            if q_flat.size == 0:
                break
            counts = np.bincount(col_of_entry, minlength=nodes.size)
            live = counts > 0
            nodes = nodes[live]
            q_offsets = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(counts[live])]
            )
            child_counts, children = expand_csr(
                self._np_child_offsets, self._np_child_flat, nodes
            )
            parent_of_child = np.repeat(
                np.arange(nodes.size, dtype=np.int64), child_counts
            )
            q_counts, child_q_flat = expand_csr(q_offsets, q_flat, parent_of_child)
            nodes = children
            q_flat = child_q_flat
            q_offsets = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(q_counts)]
            )
            dists = grouped_pair_distances(
                Q,
                q_flat,
                q_offsets,
                self._np_centers[nodes],
                Q_sq=Q_sq,
                C_sq=self._np_center_sq[nodes],
                squared=True,
            )
        if not leaf_qs:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(leaf_qs), np.concatenate(leaf_ns)

    def batch_range_query(self, Q: np.ndarray, eps: float) -> list[np.ndarray]:
        """Batched range query; row ``i`` equals ``range_query(Q[i], eps)``.

        The scalar path's best-first order only matters when the leaf-
        check budget (``checks_ratio``) runs out mid-search. The batch
        path therefore splits the queries after a shared vectorized
        reachability traversal: queries whose reachable-leaf count fits
        the budget — always true at ``checks_ratio=1.0`` — are answered
        with per-leaf distance blocks; the rest fall back to the scalar
        search, keeping every row identical to the per-point path.
        """
        self._require_built()
        Q = self._as_query_matrix(Q)
        n_queries = Q.shape[0]
        if n_queries == 0:
            return []
        eps = float(eps)
        r = euclidean_from_cosine(min(max(eps, 0.0), 2.0))
        leaf_q, leaf_node = self._batch_reachable_leaves(Q, r)
        budget = self._max_leaf_checks()
        reach_counts = np.bincount(leaf_q, minlength=n_queries)
        over_budget = reach_counts > budget
        if over_budget.any():
            in_budget = ~over_budget[leaf_q]
            leaf_q = leaf_q[in_budget]
            leaf_node = leaf_node[in_budget]
        results: list[np.ndarray | None] = [None] * n_queries
        hit_qs: list[np.ndarray] = []
        hit_ps: list[np.ndarray] = []
        # One cosine-distance block per distinct visited leaf: all the
        # queries that reach the leaf against its contiguous point copy.
        order = np.argsort(leaf_node, kind="stable")
        leaf_q = leaf_q[order]
        leaf_node = leaf_node[order]
        starts = np.flatnonzero(np.diff(leaf_node, prepend=-1))
        bounds = np.append(starts, leaf_node.size)
        for b in range(starts.size):
            queries = leaf_q[bounds[b] : bounds[b + 1]]
            node = self._np_nodes[leaf_node[bounds[b]]]
            block = np.maximum(0.0, 1.0 - Q[queries] @ node.leaf_points.T)
            rows, cols = np.nonzero(block < eps)
            if rows.size:
                hit_qs.append(queries[rows])
                hit_ps.append(node.point_indices[cols])
        grouped = group_hit_pairs(
            np.concatenate(hit_qs) if hit_qs else np.empty(0, dtype=np.int64),
            np.concatenate(hit_ps) if hit_ps else np.empty(0, dtype=np.int64),
            self.n_points,
            n_queries,
        )
        for i in range(n_queries):
            if over_budget[i]:
                results[i] = self.range_query(Q[i], eps)
            else:
                results[i] = grouped[i]
        return results

    def batch_range_count(self, Q: np.ndarray, eps: float) -> np.ndarray:
        """Batched counts; row ``i`` equals ``range_count(Q[i], eps)``."""
        self._require_built()
        return np.array(
            [row.size for row in self.batch_range_query(Q, eps)], dtype=np.int64
        )

    # ------------------------------------------------------------------
    # Persistence
    #
    # The tree is stored flat in the _freeze() BFS order: per-node
    # center/radius/is_leaf plus the children CSR, and the leaves'
    # point indices and contiguous point copies concatenated in the
    # same order. Reconstruction walks node ids ascending, so the
    # post-load _freeze() assigns every node its saved id back and the
    # vectorized arrays come out identical to the pre-save ones.
    # ------------------------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        self._require_built()
        leaves = [n for n in self._np_nodes if n.is_leaf]
        leaf_sizes = np.array([n.point_indices.size for n in leaves], dtype=np.int64)
        leaf_indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(leaf_sizes)]
        )
        if leaves:
            leaf_index_flat = np.concatenate([n.point_indices for n in leaves])
            leaf_points_flat = np.concatenate([n.leaf_points for n in leaves])
        else:
            leaf_index_flat = np.empty(0, dtype=np.int64)
            leaf_points_flat = np.empty((0, self._points.shape[1]))
        return {
            "points": self._points,
            "centers": self._np_centers,
            "radius": self._np_radius,
            "is_leaf": self._np_is_leaf,
            "child_offsets": self._np_child_offsets,
            "child_flat": self._np_child_flat,
            "leaf_indptr": leaf_indptr,
            "leaf_index_flat": leaf_index_flat,
            "leaf_points_flat": leaf_points_flat,
        }

    def from_arrays(self, arrays: dict) -> "KMeansTree":
        self._points = np.asarray(arrays["points"], dtype=np.float64)
        centers = np.asarray(arrays["centers"], dtype=np.float64)
        radius = np.asarray(arrays["radius"], dtype=np.float64)
        is_leaf = np.asarray(arrays["is_leaf"], dtype=bool)
        child_offsets = np.asarray(arrays["child_offsets"], dtype=np.int64)
        child_flat = np.asarray(arrays["child_flat"], dtype=np.int64)
        leaf_indptr = np.asarray(arrays["leaf_indptr"], dtype=np.int64)
        leaf_index_flat = np.asarray(arrays["leaf_index_flat"], dtype=np.int64)
        leaf_points_flat = np.asarray(arrays["leaf_points_flat"], dtype=np.float64)
        n_nodes = centers.shape[0]
        nodes = [_Node(centers[i]) for i in range(n_nodes)]
        next_leaf = 0
        for i, node in enumerate(nodes):
            node.radius = float(radius[i])
            if is_leaf[i]:
                lo, hi = leaf_indptr[next_leaf], leaf_indptr[next_leaf + 1]
                next_leaf += 1
                # Contiguous slices of the flats: a memory-mapped leaf
                # block is served straight from the map, no copy.
                node.point_indices = leaf_index_flat[lo:hi]
                node.leaf_points = leaf_points_flat[lo:hi]
            else:
                kids = child_flat[child_offsets[i] : child_offsets[i + 1]]
                node.children = [nodes[int(j)] for j in kids]
                node.child_centers = centers[kids]
        self._root = nodes[0] if nodes else None
        self._n_leaves = int(np.count_nonzero(is_leaf))
        self._freeze()
        return self
