"""LAF-DBSCAN++: the LAF plugin applied to DBSCAN++.

Demonstrates the framework's genericity (paper Section 2.1): the same
computation waste exists in sampling-based variants, because DBSCAN++
still runs one full range query per *sampled* point to decide coreness.
LAF inserts the identical gate:

* a sampled point predicted non-core skips its range query and is
  registered in ``E``, all of them before the first query;
* executed range queries feed ``UpdatePartialNeighbors`` so predicted
  stop points accumulate partial neighbors: ``E(P)`` is every queried
  point within eps of ``P``;
* after DBSCAN++ finishes (core graph + nearest-core assignment), the
  standard post-processing merges clusters split by false negatives.

The paper fixes ``alpha = 1.0`` for LAF-DBSCAN++ and reuses DBSCAN++'s
sample fraction ``p``.
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
from repro.core.laf import LAF, partial_neighbors
from repro.distances import check_unit_norm, iter_distance_blocks, nearest_in_blocks
from repro.engine_config import ExecutionConfig
from repro.estimators.base import CardinalityEstimator
from repro.exceptions import InvalidParameterError
from repro.index.base import pair_counts
from repro.rng import ensure_rng

__all__ = ["LAFDBSCANPlusPlus"]


class LAFDBSCANPlusPlus(Clusterer):
    """LAF-enhanced DBSCAN++ (uniform sampling host).

    Parameters
    ----------
    eps, tau:
        Density parameters (cosine distance).
    p:
        Sample fraction in (0, 1] (kept identical to the DBSCAN++
        baseline in the paper's comparisons).
    estimator:
        Fitted cardinality estimator.
    alpha:
        Gate error factor; the paper fixes 1.0 for this method.
    assign_within_eps:
        Same border semantics switch as the DBSCAN++ baseline.
    seed:
        Sampling seed; post-processing draws nothing.
    execution:
        Execution policy (range queries run on exact brute force). The
        range queries that survive the gate run as one join over the
        gated sample, ``range_pairs(eps, rows=gated)``, which computes a
        pair of two gated points once and counts it toward both. Every
        gated sample point is queried exactly once, and every
        skipped one is registered before the first query, so ``E(P)`` is
        the gated points the join pairs with ``P``
        (:func:`~repro.core.laf.partial_neighbors`) and the output is
        identical to one scalar query per point. The cores are gated
        points, so the core graph is read off the same pairs, and so is
        each point's list of cores within eps, from which
        :func:`~repro.clustering.components.assign_to_cores` assigns it
        when ``assign_within_eps``.
    """

    algo_name = "laf-dbscan++"

    def __init__(
        self,
        eps: float,
        tau: int,
        estimator: CardinalityEstimator,
        p: float = 0.3,
        alpha: float = 1.0,
        enable_post_processing: bool = True,
        assign_within_eps: bool = True,
        seed: int | np.random.Generator | None = 0,
        execution: ExecutionConfig | None = None,
    ) -> None:
        super().__init__(eps, tau, execution=execution)
        if not 0.0 < p <= 1.0:
            raise InvalidParameterError(f"sample fraction p must lie in (0, 1]; got {p}")
        self.p = float(p)
        self.assign_within_eps = bool(assign_within_eps)
        self.seed = seed
        self.laf = LAF(
            estimator, alpha=alpha, enable_post_processing=enable_post_processing
        )

    def model_params(self) -> dict:
        params = super().model_params()
        params.update(
            p=self.p,
            assign_within_eps=self.assign_within_eps,
            alpha=self.laf.alpha,
            enable_post_processing=self.laf.enable_post_processing,
        )
        return params

    def fit(self, X: np.ndarray) -> ClusteringResult:
        X = check_unit_norm(X)
        n = X.shape[0]
        predicted_core = self.laf.begin_run(X, self.eps, self.tau)

        m = max(1, int(round(self.p * n)))
        sample = np.sort(ensure_rng(self.seed).choice(n, size=m, replace=False))

        # Gate the per-sample range queries with CardEst. Every skipped
        # point is registered in E before any query runs, so each
        # executed query counts toward all of them (stop_at 0), and every
        # gated point is queried exactly once, in sample order, so the
        # gated set runs as one join.
        gated = sample[predicted_core[sample]]
        skipped = sample[~predicted_core[sample]]
        stop_at = np.full(n, n, dtype=np.int64)
        stop_at[skipped] = 0
        query_at = np.full(n, -1, dtype=np.int64)
        query_at[gated] = np.arange(gated.size)
        with self._engine(X) as index:
            pairs = index.range_pairs(self.eps, rows=gated)
            engine_stats = index.stats()
        # A pair of two gated points is listed once, at its lower row: it
        # counts toward both (DBSCAN's mirror rule).
        core_sample = gated[pair_counts(pairs, n)[gated] >= self.tau]
        E = partial_neighbors(pairs, skipped.tolist(), stop_at, query_at)

        stats: dict[str, int | float] = {
            "range_queries": int(gated.size),
            "skipped_queries": int(skipped.size),
            "sample_size": int(sample.size),
            "n_core": int(core_sample.size),
            "core_graph_pairs": 0,
            "n_core_components": 0,
        }
        stats.update(engine_stats)
        labels = np.full(n, NOISE, dtype=np.int64)
        core_mask = np.zeros(n, dtype=bool)
        if core_sample.size:
            # DBSCAN++ core graph: the cores are gated rows, so the join
            # holds each pair of two cores once.
            core_labels, core_graph_pairs = connected_components_within(
                pairs, core_sample
            )
            stats["core_graph_pairs"] = core_graph_pairs
            stats["n_core_components"] = int(core_labels.max()) + 1

            core_mask[core_sample] = True
            if self.assign_within_eps:
                # The join lists every core within eps of every point.
                labels = assign_to_cores(pairs, core_sample, core_labels, X)
            else:
                labels[core_sample] = core_labels
                rest = np.flatnonzero(~core_mask)
                nearest, _ = nearest_in_blocks(
                    iter_distance_blocks(X[rest], X[core_sample]), rest.size
                )
                labels[rest] = core_labels[nearest]

        outcome = self.laf.finalize(labels, self.tau, E)
        stats.update(
            cardest_calls=n,
            predicted_stop_points=len(E),
            alpha=self.laf.alpha,
            fn_detected=outcome.n_false_negatives,
            merges=outcome.n_merges,
        )
        return ClusteringResult(
            labels=canonicalize_labels(outcome.labels),
            core_mask=core_mask,
            stats=stats,
        )
