"""Ablations beyond the paper: estimator choice and post-processing.

The paper explicitly defers "the impact of the cardinality estimator
being used" and "extensively investigating the proper alpha" to future
work; these harnesses cover both, plus the value of the post-processing
module (Algorithm 3) itself:

* :func:`estimator_ablation` — swap the RMI for the classical
  estimators (exact oracle, sampling, KDE, radial histogram) inside
  LAF-DBSCAN and compare speed/quality;
* :func:`postprocessing_ablation` — run LAF-DBSCAN with and without
  Algorithm 3 at several alphas, quantifying how much quality the
  merge-repair recovers.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.core import LAFDBSCAN
from repro.estimators import (
    CardinalityEstimator,
    ExactCardinalityEstimator,
    KDECardinalityEstimator,
    RadialHistogramEstimator,
    SamplingCardinalityEstimator,
)
from repro.experiments.runner import ground_truth, run_method
from repro.metrics.ari import adjusted_rand_index
from repro.metrics.mutual_info import adjusted_mutual_info

__all__ = [
    "AblationRecord",
    "classical_estimators",
    "estimator_ablation",
    "postprocessing_ablation",
]


@dataclasses.dataclass(frozen=True)
class AblationRecord:
    """One ablation measurement."""

    variant: str
    elapsed_seconds: float
    ari: float
    ami: float
    fn_detected: int
    merges: int

    def as_row(self) -> dict[str, object]:
        return {
            "variant": self.variant,
            "time_s": round(self.elapsed_seconds, 4),
            "ARI": round(self.ari, 4),
            "AMI": round(self.ami, 4),
            "FN": self.fn_detected,
            "merges": self.merges,
        }


def classical_estimators(seed: int = 0) -> dict[str, CardinalityEstimator]:
    """The non-learned estimators used in the ablation."""
    return {
        "exact-oracle": ExactCardinalityEstimator(),
        "sampling": SamplingCardinalityEstimator(sample_size=256, seed=seed),
        "kde": KDECardinalityEstimator(sample_size=256, seed=seed),
        "histogram": RadialHistogramEstimator(n_pivots=16, seed=seed),
    }


def _run_variant(
    variant: str,
    X: np.ndarray,
    gt_labels: np.ndarray,
    estimator: CardinalityEstimator,
    eps: float,
    tau: int,
    alpha: float,
    enable_post_processing: bool,
) -> AblationRecord:
    clusterer = LAFDBSCAN(
        eps=eps,
        tau=tau,
        estimator=estimator,
        alpha=alpha,
        enable_post_processing=enable_post_processing,
    )
    result, elapsed = run_method(clusterer, X)
    return AblationRecord(
        variant=variant,
        elapsed_seconds=elapsed,
        ari=adjusted_rand_index(gt_labels, result.labels),
        ami=adjusted_mutual_info(gt_labels, result.labels),
        fn_detected=int(result.stats.get("fn_detected", 0)),
        merges=int(result.stats.get("merges", 0)),
    )


def estimator_ablation(
    X: np.ndarray,
    X_train: np.ndarray,
    learned_estimator: CardinalityEstimator,
    eps: float,
    tau: int,
    alpha: float = 1.5,
    seed: int = 0,
) -> list[AblationRecord]:
    """LAF-DBSCAN quality/speed across estimator families.

    The learned estimator (already fitted) competes with the classical
    ones, which are fitted here on the same training split.
    """
    gt = ground_truth(X, eps, tau)
    records = [
        _run_variant(
            "rmi-learned", X, gt.labels, learned_estimator, eps, tau, alpha, True
        )
    ]
    for name, estimator in classical_estimators(seed).items():
        estimator.fit(X_train)
        records.append(
            _run_variant(name, X, gt.labels, estimator, eps, tau, alpha, True)
        )
    return records


def postprocessing_ablation(
    X: np.ndarray,
    estimator: CardinalityEstimator,
    eps: float,
    tau: int,
    alphas: Sequence[float] = (1.5, 3.0, 7.7),
) -> list[AblationRecord]:
    """Algorithm 3 on/off at increasing alpha (more false negatives)."""
    gt = ground_truth(X, eps, tau)
    records: list[AblationRecord] = []
    for alpha in alphas:
        for enabled in (True, False):
            suffix = "with-postproc" if enabled else "no-postproc"
            records.append(
                _run_variant(
                    f"alpha={alpha}:{suffix}",
                    X,
                    gt.labels,
                    estimator,
                    eps,
                    tau,
                    alpha,
                    enabled,
                )
            )
    return records
