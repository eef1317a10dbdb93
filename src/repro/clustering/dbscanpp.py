"""DBSCAN++ (Jang & Jiang 2018): sampling-based approximate DBSCAN.

The paper's description (Section 3.1): sample a subset of data points,
detect core points *within the subset* w.r.t. the entire dataset, grow
clusters around those core points within the subset, then assign every
remaining unclassified point to its closest core point. The sample
fraction ``p`` is the efficiency/quality knob (the paper derives it from
the predicted core ratio, ``p = delta + R_c``).

Both uniform and greedy K-center initializations of the original paper
are implemented.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.base import (
    NOISE,
    Clusterer,
    ClusteringResult,
    canonicalize_labels,
)
from repro.clustering.components import assign_to_cores, connected_components_within
from repro.distances import check_unit_norm, iter_distance_blocks, nearest_in_blocks
from repro.engine_config import ExecutionConfig
from repro.exceptions import InvalidParameterError
from repro.index.base import pair_counts
from repro.rng import ensure_rng

__all__ = ["DBSCANPlusPlus"]

_INIT_METHODS = ("uniform", "k-center")


class DBSCANPlusPlus(Clusterer):
    """Approximate DBSCAN running the heavy computation on a sample.

    Parameters
    ----------
    eps, tau:
        DBSCAN density parameters (cosine distance, neighbor threshold).
    p:
        Sample fraction in (0, 1].
    init:
        ``"uniform"`` (default) or ``"k-center"`` (farthest-first
        traversal, as in the original paper).
    assign_within_eps:
        When True (default), an unsampled point joins its closest core
        point's cluster only if within ``eps`` of it, otherwise it stays
        noise — keeping DBSCAN's noise semantics. When False, every
        point is absorbed by its closest core point.
    seed:
        Sampling seed.
    execution:
        Execution policy. The per-sample core test is one join over the
        sample, ``range_pairs(eps, rows=sample)`` (sharded when a
        sharding config is set), whose pairs count toward both of their
        points (:func:`~repro.index.base.pair_counts`): LAF-DBSCAN++'s
        core test with every sampled point passing the gate. The cores
        are sampled rows, so the core graph is read off the same pairs,
        and so is each point's list of cores within eps, from which
        :func:`~repro.clustering.components.assign_to_cores` assigns it
        when ``assign_within_eps``.
    """

    algo_name = "dbscan++"

    def __init__(
        self,
        eps: float,
        tau: int,
        p: float = 0.3,
        init: str = "uniform",
        assign_within_eps: bool = True,
        seed: int | np.random.Generator | None = 0,
        execution: ExecutionConfig | None = None,
    ) -> None:
        super().__init__(eps, tau, execution=execution)
        if not 0.0 < p <= 1.0:
            raise InvalidParameterError(f"sample fraction p must lie in (0, 1]; got {p}")
        if init not in _INIT_METHODS:
            raise InvalidParameterError(
                f"init must be one of {_INIT_METHODS}; got {init!r}"
            )
        self.p = float(p)
        self.init = init
        self.assign_within_eps = bool(assign_within_eps)
        self.seed = seed

    def model_params(self) -> dict:
        params = super().model_params()
        params.update(
            p=self.p, init=self.init, assign_within_eps=self.assign_within_eps
        )
        return params

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def _sample_indices(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        m = max(1, int(round(self.p * n)))
        rng = ensure_rng(self.seed)
        if self.init == "uniform":
            return np.sort(rng.choice(n, size=m, replace=False))
        return self._k_center_indices(X, m, first=int(rng.integers(n)))

    def _k_center_indices(self, X: np.ndarray, m: int, first: int) -> np.ndarray:
        """Greedy farthest-first traversal (2-approximate K-center)."""
        chosen = np.empty(m, dtype=np.int64)
        chosen[0] = first
        min_dists = 1.0 - X @ X[chosen[0]]
        min_dists[chosen[0]] = -np.inf  # argmax only sees unchosen rows
        for i in range(1, m):
            chosen[i] = int(np.argmax(min_dists))
            min_dists[chosen[i]] = -np.inf
            new_dists = 1.0 - X @ X[chosen[i]]
            np.minimum(min_dists, new_dists, out=min_dists)
        return np.sort(chosen)

    # ------------------------------------------------------------------
    # Clustering
    # ------------------------------------------------------------------

    def fit(self, X: np.ndarray) -> ClusteringResult:
        X = check_unit_norm(X)
        n = X.shape[0]
        sample = self._sample_indices(X)

        # Core detection within the sample, counted against the full set.
        with self._engine(X) as index:
            pairs = index.range_pairs(self.eps, rows=sample)
            engine_stats = index.stats()
        core_sample = sample[pair_counts(pairs, n)[sample] >= self.tau]
        stats = {
            "range_queries": int(sample.size),
            "sample_size": int(sample.size),
            "n_core": int(core_sample.size),
            "core_graph_pairs": 0,
            "n_core_components": 0,
        }
        stats.update(engine_stats)
        if core_sample.size == 0:
            return ClusteringResult(
                labels=np.full(n, NOISE, dtype=np.int64),
                core_mask=np.zeros(n, dtype=bool),
                stats=stats,
            )

        # Connect core points that are mutual eps-neighbors. The cores are
        # sampled rows, so the join holds each pair of two cores once.
        core_labels, core_graph_pairs = connected_components_within(pairs, core_sample)
        stats["core_graph_pairs"] = core_graph_pairs
        stats["n_core_components"] = int(core_labels.max()) + 1

        # Core points belong to their own cluster; every other point
        # joins its closest core point's.
        core_mask = np.zeros(n, dtype=bool)
        core_mask[core_sample] = True
        if self.assign_within_eps:
            # The join lists every core within eps of every point.
            labels = assign_to_cores(pairs, core_sample, core_labels, X)
        else:
            labels = np.empty(n, dtype=np.int64)
            labels[core_sample] = core_labels
            rest = np.flatnonzero(~core_mask)
            nearest, _ = nearest_in_blocks(
                iter_distance_blocks(X[rest], X[core_sample]), rest.size
            )
            labels[rest] = core_labels[nearest]
        return ClusteringResult(
            labels=canonicalize_labels(labels),
            core_mask=core_mask,
            stats=stats,
        )
