"""Error-factor selection and the predicted-core-ratio rule.

The paper sets ``alpha`` per dataset by grid search (Section 3.2) and
derives DBSCAN++'s sample fraction from the estimator's predictions:
``p = delta + R_c`` where ``R_c`` is the ratio of points predicted core
(Section 3.1, Parameters). Both utilities live here.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.core.laf_dbscan import LAFDBSCAN
from repro.estimators.base import CardinalityEstimator
from repro.exceptions import InvalidParameterError
from repro.metrics.ari import adjusted_rand_index
from repro.metrics.mutual_info import adjusted_mutual_info

__all__ = ["predicted_core_ratio", "AlphaCandidate", "select_alpha"]


def predicted_core_ratio(
    estimator: CardinalityEstimator,
    X: np.ndarray,
    eps: float,
    tau: int,
    alpha: float = 1.0,
) -> float:
    """``R_c``: fraction of points the estimator predicts as core.

    The paper's automatic rule for DBSCAN++'s sample fraction is
    ``p = delta + R_c`` with ``delta`` between 0.1 and 0.3.
    """
    predictions = estimator.bind(X).estimate_many(X, eps)
    return float(np.count_nonzero(predictions >= alpha * tau) / X.shape[0])


@dataclasses.dataclass(frozen=True)
class AlphaCandidate:
    """One grid-search point: quality and speed of LAF-DBSCAN at alpha."""

    alpha: float
    elapsed_seconds: float
    ari: float
    ami: float


def select_alpha(
    X: np.ndarray,
    ground_truth_labels: np.ndarray,
    estimator: CardinalityEstimator,
    eps: float,
    tau: int,
    alpha_grid: tuple[float, ...] = (1.0, 1.15, 1.5, 2.0, 3.0, 5.0, 7.7),
    min_ami: float = 0.4,
) -> tuple[float, list[AlphaCandidate]]:
    """Grid-search alpha like the paper: fastest setting above a quality bar.

    Runs LAF-DBSCAN once per candidate alpha, scores against the
    supplied DBSCAN ground truth and returns ``(best_alpha, all
    candidates)``. "Best" is the fastest candidate whose AMI clears
    ``min_ami``; if none clears it, the highest-AMI candidate wins.
    """
    if not alpha_grid:
        raise InvalidParameterError("alpha_grid must be non-empty")
    candidates: list[AlphaCandidate] = []
    for alpha in alpha_grid:
        clusterer = LAFDBSCAN(eps=eps, tau=tau, estimator=estimator, alpha=alpha)
        started = time.perf_counter()
        result = clusterer.fit(X)
        elapsed = time.perf_counter() - started
        candidates.append(
            AlphaCandidate(
                alpha=float(alpha),
                elapsed_seconds=elapsed,
                ari=adjusted_rand_index(ground_truth_labels, result.labels),
                ami=adjusted_mutual_info(ground_truth_labels, result.labels),
            )
        )
    acceptable = [c for c in candidates if c.ami >= min_ami]
    if acceptable:
        best = min(acceptable, key=lambda c: c.elapsed_seconds)
    else:
        best = max(candidates, key=lambda c: c.ami)
    return best.alpha, candidates
