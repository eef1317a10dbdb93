"""Algorithm 1: LAF-enhanced DBSCAN.

Line-for-line implementation of the paper's Algorithm 1. The black lines
are original DBSCAN (:mod:`repro.clustering.dbscan`); the red lines —
the ``CardEst`` gate, the map ``E`` maintenance and the final
``PostProcessing`` — come from the :class:`~repro.core.laf.LAF` plugin:

* a point predicted non-core (``CardEst(P) < alpha * tau``) is marked
  noise *without* executing its range query (lines 6-9, 26-27) and
  registered in ``E``;
* every executed range query feeds ``UpdatePartialNeighbors`` (lines
  11, 24), so predicted stop points passively accumulate neighbors;
* the post-processing pass (line 28) detects false negatives
  (``|E(P)| >= tau``) and merges the clusters they split.

With a perfect estimator and ``alpha = 1`` the gate agrees with the
exact core test everywhere, no false predictions exist, and the output
equals original DBSCAN exactly — an invariant the integration tests
assert with the :class:`~repro.estimators.exact.ExactCardinalityEstimator`.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.base import (
    NOISE,
    Clusterer,
    ClusteringResult,
    canonicalize_labels,
)
from repro.core.laf import LAF
from repro.distances.metric import COSINE, Metric
from repro.engine_config import ExecutionConfig
from repro.estimators.base import CardinalityEstimator

__all__ = ["LAFDBSCAN"]

#: Internal sentinel for unvisited points (paper: "undefined").
UNDEFINED = -2


class LAFDBSCAN(Clusterer):
    """LAF-enhanced DBSCAN (the paper's main method).

    Parameters
    ----------
    eps, tau:
        DBSCAN density parameters (cosine distance, neighbor threshold).
    estimator:
        Fitted cardinality estimator; bound to the clustered set inside
        :meth:`fit`.
    alpha:
        Error factor of the gate (paper Table 1 values per dataset).
    enable_post_processing:
        Turn off only for the ablation study.
    seed:
        Seed for the post-processing destination choice.
    execution:
        Execution policy (default backend: exact brute force, as in the
        paper). On the default batched path the executed range queries
        go through the batched engine: exactly the predicted-core points
        are planned (each is queried once by Algorithm 1, no more, no
        fewer), so the gate's savings are preserved while the surviving
        queries run as blocked matrix products.
        ``UpdatePartialNeighbors`` still fires per executed query at its
        Algorithm 1 line, so the map ``E`` — and therefore
        post-processing — is identical to the per-point path
        (``batch_queries=False``).

    Examples
    --------
    >>> from repro.data import load_dataset
    >>> from repro.estimators import ExactCardinalityEstimator
    >>> ds = load_dataset("MS-50k", scale=0.004, seed=3)
    >>> laf = LAFDBSCAN(eps=0.55, tau=5, estimator=ExactCardinalityEstimator())
    >>> result = laf.fit(ds.X)
    >>> result.stats["skipped_queries"] > 0
    True
    """

    algo_name = "laf-dbscan"

    def __init__(
        self,
        eps: float,
        tau: int,
        estimator: CardinalityEstimator,
        alpha: float = 1.0,
        enable_post_processing: bool = True,
        metric: str | Metric = COSINE,
        seed: int | np.random.Generator | None = 0,
        execution: ExecutionConfig | None = None,
    ) -> None:
        super().__init__(eps, tau, metric=metric, execution=execution)
        self.laf = LAF(
            estimator,
            alpha=alpha,
            enable_post_processing=enable_post_processing,
            seed=seed,
        )

    def model_params(self) -> dict:
        params = super().model_params()
        params.update(
            alpha=self.laf.alpha,
            enable_post_processing=self.laf.enable_post_processing,
        )
        return params

    def fit(self, X: np.ndarray) -> ClusteringResult:
        X = self.metric.validate(X)
        n = X.shape[0]
        predicted_core = self.laf.begin_run(X, self.eps, self.tau)  # the CardEst gate
        E = self.laf.partial_neighbors

        labels = np.full(n, UNDEFINED, dtype=np.int64)  # line 3
        core_mask = np.zeros(n, dtype=bool)
        # Queue dedup: a duplicate enqueue is a semantic no-op (second
        # visit stops at the label check), so skip it up front.
        enqueued = np.zeros(n, dtype=bool)
        n_range_queries = 0
        n_skipped = 0
        cluster_id = -1

        # Algorithm 1 executes exactly one range query per
        # predicted-core point, so those are the plan; predicted stop
        # points are never planned and never computed, keeping the
        # gate's skipped-query savings intact.
        with self._engine(X, plan=np.flatnonzero(predicted_core)) as engine:
            fetch = engine.fetch
            for p in range(n):  # line 4
                if labels[p] != UNDEFINED:  # line 5
                    continue
                if not predicted_core[p]:  # line 6: CardEst(P) < alpha * tau
                    labels[p] = NOISE  # line 7
                    E.register_stop_point(p)  # line 8
                    n_skipped += 1
                    continue  # line 9
                neighbors = fetch(p)  # line 10
                n_range_queries += 1
                E.update(p, neighbors)  # line 11
                if neighbors.size < self.tau:  # line 12 (false positive)
                    labels[p] = NOISE  # line 13
                    continue  # line 14
                cluster_id += 1  # line 15
                labels[p] = cluster_id  # line 16
                core_mask[p] = True
                queue = neighbors[neighbors != p].tolist()  # line 17: S := N - {P}
                enqueued[neighbors] = True
                head = 0
                while head < len(queue):  # line 18
                    q = queue[head]
                    head += 1
                    if labels[q] == NOISE:  # line 19: border claims noise
                        labels[q] = cluster_id
                    if labels[q] != UNDEFINED:  # line 20
                        continue
                    labels[q] = cluster_id  # line 21
                    if predicted_core[q]:  # line 22: CardEst(Q) >= alpha * tau
                        q_neighbors = fetch(q)  # line 23
                        n_range_queries += 1
                        E.update(q, q_neighbors)  # line 24
                        if q_neighbors.size >= self.tau:  # line 25
                            core_mask[q] = True
                            fresh = q_neighbors[~enqueued[q_neighbors]]  # S := S u N
                            enqueued[fresh] = True
                            queue.extend(fresh.tolist())
                    else:
                        E.register_stop_point(q)  # lines 26-27
                        n_skipped += 1

            engine_stats = engine.stats()

        outcome = self.laf.finalize(labels, self.tau)  # line 28
        stats: dict[str, int | float] = {
            "range_queries": n_range_queries,
            "skipped_queries": n_skipped,
            "fn_detected": outcome.n_false_negatives,
            "merges": outcome.n_merges,
        }
        stats.update(self.laf.stats())
        stats.update(engine_stats)
        return ClusteringResult(
            labels=canonicalize_labels(outcome.labels),
            core_mask=core_mask,
            stats=stats,
        )
