"""LAF-DBSCAN++: the LAF plugin applied to DBSCAN++.

Demonstrates the framework's genericity (paper Section 2.1): the same
computation waste exists in sampling-based variants, because DBSCAN++
still runs one full range query per *sampled* point to decide coreness.
LAF inserts the identical gate:

* a sampled point predicted non-core skips its range query and is
  registered in ``E``;
* executed range queries feed ``UpdatePartialNeighbors`` so predicted
  stop points accumulate partial neighbors;
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
from repro.clustering.components import connected_components_within
from repro.core.laf import LAF
from repro.distances import check_unit_norm, iter_distance_blocks, nearest_in_blocks
from repro.engine_config import ExecutionConfig
from repro.estimators.base import CardinalityEstimator
from repro.exceptions import InvalidParameterError
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
        Sampling and post-processing seed.
    execution:
        Execution policy (default backend: exact brute force). On the
        default batched path the range queries that survive the gate run
        through the batched engine with the gated sample as the plan
        (serve-and-release). Every gated sample point is queried exactly
        once either way, and ``UpdatePartialNeighbors`` receives each
        executed result in the same sample order, so the output is
        identical to the per-point path (``batch_queries=False``).
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
        self._rng = ensure_rng(seed)
        self.laf = LAF(
            estimator,
            alpha=alpha,
            enable_post_processing=enable_post_processing,
            seed=self._rng,
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
        E = self.laf.partial_neighbors

        m = max(1, int(round(self.p * n)))
        sample = np.sort(self._rng.choice(n, size=m, replace=False))

        # Gate the per-sample range queries with CardEst.
        gated = sample[predicted_core[sample]]
        skipped = sample[~predicted_core[sample]]
        for s in skipped.tolist():
            E.register_stop_point(s)
        core_list: list[int] = []
        n_range_queries = 0
        # Every gated point is queried exactly once, in sample order, so
        # the gated set is the plan; serve-and-release keeps only the
        # prefetched tail of each block resident. The E.update feed below
        # still runs per result in sample order, exactly as the per-point
        # loop would.
        with self._engine(X, plan=gated) as engine:
            fetch = engine.fetch
            for s in gated.tolist():
                neighbors = fetch(s)
                n_range_queries += 1
                E.update(s, neighbors)
                if neighbors.size >= self.tau:
                    core_list.append(s)
            engine_stats = engine.stats()
        core_sample = np.array(core_list, dtype=np.int64)

        stats: dict[str, int | float] = {
            "range_queries": n_range_queries,
            "skipped_queries": int(skipped.size),
            "sample_size": int(sample.size),
            "n_core": int(core_sample.size),
        }
        stats.update(engine_stats)
        core_mask = np.zeros(n, dtype=bool)
        if core_sample.size == 0:
            outcome = self.laf.finalize(np.full(n, NOISE, dtype=np.int64), self.tau)
            stats.update(self.laf.stats())
            stats.update(
                {"fn_detected": outcome.n_false_negatives, "merges": outcome.n_merges}
            )
            return ClusteringResult(
                labels=canonicalize_labels(outcome.labels),
                core_mask=core_mask,
                stats=stats,
            )

        # DBSCAN++ core graph: connect cores within eps, label components.
        core_X = X[core_sample]
        core_labels = connected_components_within(core_X, self.eps)

        nearest, nearest_dist = nearest_in_blocks(iter_distance_blocks(X, core_X), n)
        labels = core_labels[nearest]
        if self.assign_within_eps:
            labels = np.where(nearest_dist < self.eps, labels, NOISE)
        labels[core_sample] = core_labels
        core_mask[core_sample] = True

        outcome = self.laf.finalize(labels, self.tau)
        stats.update(self.laf.stats())
        stats.update(
            {"fn_detected": outcome.n_false_negatives, "merges": outcome.n_merges}
        )
        return ClusteringResult(
            labels=canonicalize_labels(outcome.labels),
            core_mask=core_mask,
            stats=stats,
        )
