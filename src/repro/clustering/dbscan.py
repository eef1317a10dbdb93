"""Original DBSCAN (Ester et al. 1996) under cosine distance.

This is Algorithm 1 of the paper *without* the red LAF insertions,
computed set at a time from the pairs within ``eps`` (one index
self-join, each pair once), with the labels of sequential DBSCAN. Its
output is the ground truth every approximate method is scored against
in the paper's evaluation.
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
from repro.distances.metric import COSINE, Metric
from repro.engine_config import ExecutionConfig
from repro.index.base import pair_counts

__all__ = ["DBSCAN"]


class DBSCAN(Clusterer):
    """Exact density-based clustering from one self-join of the dataset.

    Parameters
    ----------
    eps:
        Cosine-distance threshold; neighbors satisfy ``d(P, Q) < eps``.
    tau:
        Minimum neighborhood size (including the point itself) for a
        core point — the paper's "minimum number of neighbors".
    metric:
        "cosine" (default) or "euclidean" — the future-work extension.
    execution:
        Execution policy (:class:`~repro.engine_config.ExecutionConfig`):
        sharding and kernel block size; the pairs come from exact brute
        force in the chosen metric, in one ``range_pairs`` call that
        covers all ``n`` range queries of sequential DBSCAN. The
        clustering is identical to one scalar query per point.

    Examples
    --------
    >>> from repro.data import load_dataset
    >>> ds = load_dataset("Glove-150k", scale=0.002, seed=0)
    >>> result = DBSCAN(eps=0.5, tau=3).fit(ds.X)
    >>> result.labels.shape == (ds.n_points,)
    True
    """

    algo_name = "dbscan"

    def __init__(
        self,
        eps: float,
        tau: int,
        metric: str | Metric = COSINE,
        execution: ExecutionConfig | None = None,
    ) -> None:
        super().__init__(eps, tau, metric=metric, execution=execution)

    def fit(self, X: np.ndarray) -> ClusteringResult:
        X = self.metric.validate(X)
        n = X.shape[0]
        with self._engine(X) as index:
            rows, cols = index.range_pairs(self.eps)
            stats: dict[str, int | float] = {
                "range_queries": n,
                "neighbor_pairs": int(np.count_nonzero(rows != cols)),
            }
            stats.update(index.stats())
        core_mask = pair_counts((rows, cols), n) >= self.tau
        # Sequential expansion creates one cluster per component of the
        # core-core graph, at its lowest core. The components are numbered
        # by their lowest core, so their ids are creation order.
        cores = np.flatnonzero(core_mask)
        labels = np.full(n, n, dtype=np.int64)
        labels[cores] = connected_components_within((rows, cols), cores)[0]
        # A border point joins the first-created cluster among its core
        # neighbours: the first expansion that reaches it claims it.
        row_core, col_core = core_mask[rows], core_mask[cols]
        for border, core, claimed in (
            (rows, cols, col_core & ~row_core),
            (cols, rows, row_core & ~col_core),
        ):
            np.minimum.at(labels, border[claimed], labels[core[claimed]])
        labels[labels == n] = NOISE
        return ClusteringResult(
            labels=canonicalize_labels(labels),
            core_mask=core_mask,
            stats=stats,
        )
