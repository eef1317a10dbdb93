"""Table 6: fully-missed-cluster analysis of LAF-DBSCAN.

A ground-truth cluster can be missed entirely when *all* its core points
are falsely predicted as stop points. The paper picks the worst-quality
(eps, tau) per dataset (from Table 3) and reports MC/TC, MP/TPC and
ASMC, concluding the error is negligible because missed clusters are
tiny (3-7 points on average, 1-6% of clustered points).
"""

from __future__ import annotations

import numpy as np

from repro.core import LAFDBSCAN
from repro.engine_config import ExecutionConfig
from repro.estimators.base import CardinalityEstimator
from repro.experiments.runner import ground_truth
from repro.metrics.cluster_stats import MissedClusterStats, missed_cluster_stats

__all__ = ["missed_cluster_analysis"]


def missed_cluster_analysis(
    X: np.ndarray,
    estimator: CardinalityEstimator,
    eps: float,
    tau: int,
    alpha: float,
    execution: ExecutionConfig | None = None,
) -> tuple[MissedClusterStats, dict[str, int | float]]:
    """Run LAF-DBSCAN and compare to DBSCAN ground truth (one Table 6 row).

    Returns the missed-cluster statistics plus the LAF run's counters
    (so the false-negative count of Section 3.3 is visible alongside).
    """
    gt = ground_truth(X, eps, tau, execution=execution)
    result = LAFDBSCAN(
        eps=eps,
        tau=tau,
        estimator=estimator,
        alpha=alpha,
        execution=execution,
    ).fit(X)
    stats = missed_cluster_stats(gt.labels, result.labels)
    return stats, dict(result.stats)
