"""Simplified cover tree over unit vectors.

This is the range-query substrate of BLOCK-DBSCAN, whose speed/quality
knob in the paper's trade-off study is the cover-tree *basis* ``b``
(default 2, varied 1.1-5).

The tree follows the simplified cover-tree formulation: a node at level
``l`` covers each of its children within ``covdist(l) = b**l``, children
sit exactly one level below their parent, and the whole subtree of a
level-``l`` node lies within ``subtree_radius(l) = b**l * b / (b - 1)``.
Separation between siblings is not enforced (it affects balance, not
correctness), which keeps insertion simple and exact.

Cosine distance violates the triangle inequality, so the tree operates in
the Euclidean metric on the unit sphere and converts thresholds with the
paper's Equation 1 (``d_euc = sqrt(2 * d_cos)``). Distances between unit
vectors never exceed 2, so the root level is fixed at build time to cover
the sphere and never needs raising.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distances import (
    check_unit_norm,
    euclidean_distance_to_many,
    euclidean_from_cosine,
    iter_distance_blocks,
    squared_euclidean_distance_to_many,
)
from repro.exceptions import InvalidParameterError
from repro.index.base import (
    NeighborIndex,
    expand_csr,
    group_hit_pairs,
    grouped_pair_distances,
)

__all__ = ["CoverTree"]

#: Maximum Euclidean distance between two unit vectors.
_SPHERE_DIAMETER = 2.0


class CoverTree(NeighborIndex):
    """Exact metric-tree index with configurable base.

    Parameters
    ----------
    base:
        Expansion constant ``b > 1``. Smaller bases give finer levels
        (deeper trees, tighter pruning but more nodes); this is
        BLOCK-DBSCAN's trade-off parameter in the paper.

    Notes
    -----
    ``range_query`` is exact: tests verify it returns the same index set
    as :class:`~repro.index.brute_force.BruteForceIndex` on random data.
    """

    def __init__(self, base: float = 2.0) -> None:
        if not base > 1.0:
            raise InvalidParameterError(f"cover tree base must exceed 1; got {base}")
        self.base = float(base)
        self._points: np.ndarray | None = None
        # Parallel node arrays: the node id is the position in these lists.
        self._node_point: list[int] = []
        self._node_level: list[int] = []
        self._node_children: list[list[int]] = []
        self._root: int | None = None

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------

    def _covdist(self, level: int) -> float:
        return self.base**level

    def _subtree_radius(self, level: int) -> float:
        return self.base**level * self.base / (self.base - 1.0)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def build(self, X: np.ndarray) -> "CoverTree":
        self._points = check_unit_norm(X)
        self._node_point.clear()
        self._node_level.clear()
        self._node_children.clear()
        # Root level chosen so covdist(root) >= sphere diameter: every
        # later point is guaranteed to fit under the root.
        root_level = max(1, math.ceil(math.log(_SPHERE_DIAMETER, self.base))) + 1
        self._root = self._new_node(0, root_level)
        for idx in range(1, self._points.shape[0]):
            self._insert(idx)
        self._freeze()
        return self

    def _new_node(self, point_idx: int, level: int) -> int:
        self._node_point.append(point_idx)
        self._node_level.append(level)
        self._node_children.append([])
        return len(self._node_point) - 1

    def _insert(self, point_idx: int) -> None:
        """Greedy simplified-cover-tree insertion (iterative)."""
        assert self._points is not None and self._root is not None
        p = self._points[point_idx]
        node = self._root
        while True:
            children = self._node_children[node]
            if children:
                child_pts = self._points[[self._node_point[c] for c in children]]
                dists = euclidean_distance_to_many(p, child_pts)
                # Descend into the nearest child that still covers p.
                order = int(np.argmin(dists))
                best_child = children[order]
                if dists[order] <= self._covdist(self._node_level[best_child]):
                    node = best_child
                    continue
            # No child covers p: attach it here, one level below.
            child = self._new_node(point_idx, self._node_level[node] - 1)
            self._node_children[node].append(child)
            return

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _freeze(self) -> None:
        """Build the vectorized query arrays after all insertions."""
        self._np_point = np.asarray(self._node_point, dtype=np.int64)
        levels = np.asarray(self._node_level, dtype=np.int64)
        # Subtree radius per node, precomputed once: b**level * b/(b-1).
        self._np_subtree_radius = (
            self.base ** levels.astype(np.float64) * self.base / (self.base - 1.0)
        )
        # Children in CSR form for the batched level-synchronous traversal.
        counts = np.fromiter(
            (len(c) for c in self._node_children),
            dtype=np.int64,
            count=len(self._node_children),
        )
        self._np_child_offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
        )
        self._np_child_flat = np.array(
            [c for children in self._node_children for c in children], dtype=np.int64
        )
        # Squared norms of each node's point, for the pairwise distance
        # path. Norms are computed per point and gathered per node so a
        # memory-mapped point matrix is streamed once instead of being
        # copied through an (n_nodes, dim) gather.
        point_sq = np.einsum("ij,ij->i", self._points, self._points)
        self._np_point_sq = point_sq[self._np_point]

    def range_query(self, q: np.ndarray, eps: float) -> np.ndarray:
        """Exact range query; ``eps`` is a cosine-distance threshold.

        Works on squared Euclidean distances: Equation 1 squares to
        ``r^2 = 2 * eps`` exactly, so the hit comparison never takes a
        sqrt round-trip (and agrees bit-for-bit with the batched path
        on exactly-representable distances).
        """
        self._require_built()
        eps = min(max(eps, 0.0), 2.0)
        r_sq = 2.0 * eps
        r = euclidean_from_cosine(eps)
        q = np.asarray(q, dtype=np.float64)
        result: list[np.ndarray] = []
        children = self._node_children
        frontier = np.array([self._root], dtype=np.int64)
        frontier_sq = squared_euclidean_distance_to_many(
            q, self._points[self._np_point[frontier]]
        )
        while frontier.size:
            # Strict < matches the paper's N = {Q | d(P,Q) < eps}.
            hits = frontier_sq < r_sq
            if hits.any():
                result.append(self._np_point[frontier[hits]])
            next_ids: list[int] = []
            for node in frontier.tolist():
                next_ids.extend(children[node])
            if not next_ids:
                break
            next_frontier = np.asarray(next_ids, dtype=np.int64)
            sq = squared_euclidean_distance_to_many(
                q, self._points[self._np_point[next_frontier]]
            )
            bound = r + self._np_subtree_radius[next_frontier]
            keep = sq <= bound * bound
            frontier = next_frontier[keep]
            frontier_sq = sq[keep]
        if not result:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(result))

    # ------------------------------------------------------------------
    # Batched queries (vectorized level-synchronous traversal)
    # ------------------------------------------------------------------

    def _batch_range_pairs(
        self, Q: np.ndarray, eps: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """All (query row, hit point) pairs of a batched range query.

        Runs every query's traversal simultaneously, one tree level per
        iteration. The live frontier is kept column-major: an array of
        distinct level nodes, each with the CSR list of queries whose
        ball may intersect its subtree (distinctness is free — a node
        has one parent, so no sorting or deduplication is ever needed).
        Each step expands all children with CSR gathers, evaluates every
        (query, node) pair with one blocked distance kernel, emits hits
        (``d < r``) and prunes with the same triangle-inequality bound
        as the scalar path (``d <= r + subtree_radius``), so the
        surviving pairs are exactly the scalar frontiers stacked.
        """
        eps = min(max(eps, 0.0), 2.0)
        r_sq = 2.0 * eps  # Equation 1 squared, exact — matches the scalar path
        r = euclidean_from_cosine(eps)
        n_queries = Q.shape[0]
        empty = np.empty(0, dtype=np.int64)
        if n_queries == 0 or self._root is None:
            return empty, empty
        Q_sq = np.einsum("ij,ij->i", Q, Q)
        hit_qs: list[np.ndarray] = []
        hit_ps: list[np.ndarray] = []

        # All comparisons run on squared distances against squared
        # thresholds (monotone, so the same pairs pass), skipping a sqrt
        # over every frontier pair.

        # Phase 1 — unprunable levels. While r + subtree_radius(level)
        # covers the whole sphere (diameter 2), the pruning bound can
        # never fire, so every query keeps every node: no per-pair
        # bookkeeping exists and each level is just a blocked dense
        # distance matrix from which hits (d < r) are read off.
        nodes = np.array([self._root], dtype=np.int64)
        while nodes.size:
            if r + self._np_subtree_radius[nodes[0]] < _SPHERE_DIAMETER:
                break
            pts = self._points[self._np_point[nodes]]
            for start, _, block in iter_distance_blocks(pts, Q, metric="sqeuclidean"):
                rows, cols = np.nonzero(block < r_sq)
                if rows.size:
                    hit_qs.append(cols)
                    hit_ps.append(self._np_point[nodes[rows + start]])
            _, nodes = expand_csr(self._np_child_offsets, self._np_child_flat, nodes)
        if nodes.size == 0:
            return self._concat_hits(hit_qs, hit_ps)

        # Phase 1 -> 2 handoff: the first prunable level still sees every
        # query, so its distance matrix is dense too; hits and the first
        # per-node CSR query lists (d <= r + subtree_radius) come from
        # the same blocks. np.nonzero walks the mask row-major, which is
        # exactly the column-major (node-grouped) CSR layout.
        bound_sq = (r + self._np_subtree_radius[nodes]) ** 2
        counts = np.empty(nodes.size, dtype=np.int64)
        q_lists: list[np.ndarray] = []
        pts = self._points[self._np_point[nodes]]
        for start, stop, block in iter_distance_blocks(pts, Q, metric="sqeuclidean"):
            rows, cols = np.nonzero(block < r_sq)
            if rows.size:
                hit_qs.append(cols)
                hit_ps.append(self._np_point[nodes[rows + start]])
            mask = block <= bound_sq[start:stop, None]
            counts[start:stop] = np.count_nonzero(mask, axis=1)
            q_lists.append(np.nonzero(mask)[1])
        q_flat = np.concatenate(q_lists) if q_lists else empty
        live = counts > 0
        nodes = nodes[live]
        q_offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts[live])]
        )

        # Phase 2 — pruned levels. The frontier is column-major CSR: an
        # array of distinct level nodes, each with the list of queries
        # whose ball may still intersect its subtree (distinctness is
        # free — a node has one parent — so no sorting or deduplication
        # is ever needed). Children inherit their parent's query list,
        # all pair distances of a level come from one blocked kernel,
        # and the scalar path's triangle-inequality bound drops pairs.
        while q_flat.size and nodes.size:
            child_counts, children = expand_csr(
                self._np_child_offsets, self._np_child_flat, nodes
            )
            if children.size == 0:
                break
            parent_of_child = np.repeat(
                np.arange(nodes.size, dtype=np.int64), child_counts
            )
            q_counts, child_q_flat = expand_csr(q_offsets, q_flat, parent_of_child)
            child_q_offsets = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(q_counts)]
            )
            child_d = grouped_pair_distances(
                Q,
                child_q_flat,
                child_q_offsets,
                self._points[self._np_point[children]],
                Q_sq=Q_sq,
                C_sq=self._np_point_sq[children],
                squared=True,
            )
            hits = child_d < r_sq
            col_of_entry = np.repeat(np.arange(children.size, dtype=np.int64), q_counts)
            if hits.any():
                hit_qs.append(child_q_flat[hits])
                hit_ps.append(self._np_point[children[col_of_entry[hits]]])
            bound = r + self._np_subtree_radius[children[col_of_entry]]
            keep = child_d <= bound * bound
            kept_counts = np.bincount(col_of_entry[keep], minlength=children.size)
            live = kept_counts > 0
            nodes = children[live]
            q_flat = child_q_flat[keep]
            q_offsets = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(kept_counts[live])]
            )
        return self._concat_hits(hit_qs, hit_ps)

    @staticmethod
    def _concat_hits(
        hit_qs: list[np.ndarray], hit_ps: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        if not hit_qs:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(hit_qs), np.concatenate(hit_ps)

    def batch_range_query(self, Q: np.ndarray, eps: float) -> list[np.ndarray]:
        """Exact batched range query; row ``i`` equals ``range_query(Q[i], eps)``.

        Vectorized level-synchronous traversal instead of the base
        class's per-point loop — same frontier, same pruning bound, all
        queries advanced per level with NumPy kernels.
        """
        self._require_built()
        Q = self._as_query_matrix(Q)
        hit_q, hit_p = self._batch_range_pairs(Q, eps)
        return group_hit_pairs(hit_q, hit_p, self.n_points, Q.shape[0])

    def batch_range_count(self, Q: np.ndarray, eps: float) -> np.ndarray:
        """Exact batched counts, from the same traversal as the queries."""
        self._require_built()
        Q = self._as_query_matrix(Q)
        hit_q, _ = self._batch_range_pairs(Q, eps)
        return np.bincount(hit_q, minlength=Q.shape[0]).astype(np.int64)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        self._require_built()
        return {
            "points": self._points,
            "node_point": self._np_point,
            "node_level": np.asarray(self._node_level, dtype=np.int64),
            "child_offsets": self._np_child_offsets,
            "child_flat": self._np_child_flat,
        }

    def from_arrays(self, arrays: dict) -> "CoverTree":
        self._points = np.asarray(arrays["points"], dtype=np.float64)
        node_point = np.asarray(arrays["node_point"], dtype=np.int64)
        node_level = np.asarray(arrays["node_level"], dtype=np.int64)
        offsets = np.asarray(arrays["child_offsets"], dtype=np.int64)
        flat = np.asarray(arrays["child_flat"], dtype=np.int64)
        # The scalar query/insert paths walk Python lists; restore them,
        # then _freeze() rebuilds the vectorized arrays from the same
        # state — so batched answers match the pre-save ones exactly.
        self._node_point = node_point.tolist()
        self._node_level = node_level.tolist()
        self._node_children = [
            flat[offsets[i] : offsets[i + 1]].tolist() for i in range(node_point.size)
        ]
        self._root = 0 if node_point.size else None
        self._freeze()
        return self

    # ------------------------------------------------------------------
    # Introspection (used by tests)
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Total number of tree nodes (one per indexed point)."""
        return len(self._node_point)

    def validate_invariants(self) -> None:
        """Check the covering invariant on every edge; raise on violation.

        Exposed for the test suite; O(n) distance evaluations.
        """
        self._require_built()
        for parent, children in enumerate(self._node_children):
            if not children:
                continue
            p = self._points[self._node_point[parent]]
            pts = self._points[[self._node_point[c] for c in children]]
            dists = euclidean_distance_to_many(p, pts)
            cov = self._covdist(self._node_level[parent])
            if np.any(dists > cov + 1e-9):
                raise AssertionError(
                    f"covering invariant violated at node {parent}: "
                    f"child distance {dists.max():.6f} > covdist {cov:.6f}"
                )
            for child in children:
                if self._node_level[child] != self._node_level[parent] - 1:
                    raise AssertionError("child level must be parent level - 1")
