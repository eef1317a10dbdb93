"""KNN-BLOCK DBSCAN (Chen et al. 2019), adapted to angular distance.

Accelerates DBSCAN by replacing per-point range queries with approximate
KNN queries on a FLANN-style k-means tree, then reasoning about whole
*blocks* of points at once:

* if the tau-th nearest neighbor of ``p`` lies within half the radius,
  every point within that half-radius ball is provably core ("core
  block") and needs no further queries;
* if the tau-th neighbor lies beyond the radius, points sufficiently
  close to ``p`` are provably non-core and are dismissed together
  ("non-core block", via the triangle inequality);
* the remaining points are classified individually from their own KNN
  result.

Approximation enters through the k-means tree: with a low
``checks_ratio`` the tau-th neighbor distance is overestimated and some
cores are missed — the trade-off knobs the paper sweeps are exactly the
tree's branching factor (3-20) and leaves-checked ratio (0.001-0.3).

All ball arithmetic happens in the Euclidean metric on the unit sphere
(triangle inequality required), converting via the paper's Equation 1.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.base import (
    NOISE,
    Clusterer,
    ClusteringResult,
    canonicalize_labels,
)
from repro.clustering.components import connected_components_within
from repro.clustering.union_find import UnionFind
from repro.distances import (
    check_unit_norm,
    euclidean_from_cosine,
    iter_distance_blocks,
    nearest_in_blocks,
)
from repro.exceptions import InvalidParameterError
from repro.index.brute_force import BruteForceIndex
from repro.index.kmeans_tree import KMeansTree

__all__ = ["KNNBlockDBSCAN"]


class KNNBlockDBSCAN(Clusterer):
    """Block-based approximate DBSCAN on top of approximate KNN.

    Parameters
    ----------
    eps, tau:
        DBSCAN density parameters (cosine distance).
    branching:
        K-means tree branching factor (paper default 10).
    checks_ratio:
        Fraction of tree leaves inspected per query (paper default 0.6).
    block_k:
        How many neighbors each KNN query fetches, as a multiple of
        ``tau``; larger values form larger blocks per query.
    seed:
        Seed for the k-means tree. Every :meth:`fit` builds its tree
        from this seed, so with an int seed refitting an instance on the
        same data repeats its result.
    execution:
        Accepted for interface parity (the registry facade passes one to
        every clusterer). The method is defined on approximate *KNN*
        queries over its own k-means tree — there is no range-query
        engine to configure — so only the config's presence is honored;
        its sharding and block-size fields do not apply.
    """

    algo_name = "knn-block"

    def __init__(
        self,
        eps: float,
        tau: int,
        branching: int = 10,
        checks_ratio: float = 0.6,
        block_k: int = 4,
        seed: int | np.random.Generator | None = 0,
        execution=None,
    ) -> None:
        super().__init__(eps, tau, execution=execution)
        if block_k < 1:
            raise InvalidParameterError(f"block_k must be >= 1; got {block_k}")
        self.branching = int(branching)
        self.checks_ratio = float(checks_ratio)
        self.block_k = int(block_k)
        self.seed = seed

    def model_params(self) -> dict:
        params = super().model_params()
        params.update(
            branching=self.branching,
            checks_ratio=self.checks_ratio,
            block_k=self.block_k,
        )
        return params

    def fit(self, X: np.ndarray) -> ClusteringResult:
        X = check_unit_norm(X)
        n = X.shape[0]
        r_e = euclidean_from_cosine(self.eps)  # full radius, Euclidean
        half_r = r_e / 2.0

        tree = KMeansTree(
            branching=self.branching,
            checks_ratio=self.checks_ratio,
            seed=self.seed,
        ).build(X)

        visited = np.zeros(n, dtype=bool)
        core_mask = np.zeros(n, dtype=bool)
        # Unit id per point: core blocks and individual cores become
        # union-find members; -1 = not part of any core unit.
        unit_of_point = np.full(n, -1, dtype=np.int64)
        units: list[np.ndarray] = []
        n_knn_queries = 0
        k = max(self.tau, self.tau * self.block_k)

        for p in range(n):
            if visited[p]:
                continue
            visited[p] = True
            idx, dists_cos = tree.knn_query(X[p], k)
            n_knn_queries += 1
            dists_e = np.sqrt(2.0 * np.clip(dists_cos, 0.0, None))
            if idx.size < self.tau:
                continue  # degenerate tiny dataset: p cannot be core
            d_tau = dists_e[self.tau - 1]
            if d_tau < half_r:
                # Core block: everything within half_r of p is core.
                members = idx[dists_e < half_r]
                fresh = members[~core_mask[members]]
                core_mask[members] = True
                visited[members] = True
                unit_id = len(units)
                units.append(members)
                unit_of_point[fresh] = unit_id
            elif d_tau >= r_e:
                # Non-core block: q with d(p,q) < d_tau - r_e cannot have
                # tau neighbors within r_e (triangle inequality).
                dismiss = idx[dists_e < (d_tau - r_e)]
                visited[dismiss] = True
            else:
                # Individual decision: core iff tau-th neighbor inside r_e.
                core_mask[p] = True
                unit_id = len(units)
                units.append(np.array([p], dtype=np.int64))
                unit_of_point[p] = unit_id

        labels = self._merge_and_assign(X, core_mask, unit_of_point, units)
        return ClusteringResult(
            labels=canonicalize_labels(labels),
            core_mask=core_mask,
            stats={
                "knn_queries": n_knn_queries,
                "n_core": int(core_mask.sum()),
                "n_blocks": len(units),
            },
        )

    def _merge_and_assign(
        self,
        X: np.ndarray,
        core_mask: np.ndarray,
        unit_of_point: np.ndarray,
        units: list[np.ndarray],
    ) -> np.ndarray:
        """Union core units connected within eps; attach borders."""
        n = X.shape[0]
        labels = np.full(n, NOISE, dtype=np.int64)
        core_idx = np.flatnonzero(core_mask)
        if core_idx.size == 0:
            return labels
        uf = UnionFind(len(units))
        core_X = X[core_idx]
        # A core point may appear in several blocks (overlap): its home
        # unit is the first one that claimed it; overlaps union below.
        core_units = np.array(
            [unit_of_point[i] if unit_of_point[i] >= 0 else 0 for i in core_idx]
        )
        for unit_id, members in enumerate(units):
            for q in members:
                other = unit_of_point[q]
                if other >= 0 and other != unit_id:
                    uf.union(unit_id, other)
        # Core-core connectivity within eps (cosine strict <): every core
        # unit joins the unit of its component's first core.
        pairs = BruteForceIndex().build(core_X).range_pairs(self.eps)
        component, _ = connected_components_within(pairs, np.arange(len(core_X)))
        _, first = np.unique(component, return_index=True)
        roots = core_units[first[component]]
        for unit, root in zip(core_units.tolist(), roots.tolist()):
            if unit != root:
                uf.union(unit, root)
        for i, point in enumerate(core_idx):
            labels[point] = uf.find(int(core_units[i]))
        # Borders: nearest core point within eps.
        non_core = np.flatnonzero(~core_mask)
        if non_core.size:
            nearest, nearest_dist = nearest_in_blocks(
                iter_distance_blocks(X[non_core], core_X), non_core.size
            )
            ok = nearest_dist < self.eps
            labels[non_core[ok]] = labels[core_idx][nearest[ok]]
        return labels
