"""Figures 2 and 3: speed-quality trade-off sweeps.

Each method's knob, exactly as Section 3.4 specifies:

* LAF-DBSCAN — error factor ``alpha`` from 1.1 to 15;
* DBSCAN++ / LAF-DBSCAN++ — sample-fraction offset ``delta`` from 0.1 to
  0.9 (``p = delta + R_c``; LAF-DBSCAN++ keeps ``alpha = 1``);
* KNN-BLOCK — branching factor 3-20 and leaves-checked ratio 0.001-0.3;
* BLOCK-DBSCAN — a single point at RNT 10. The paper sweeps its
  cover-tree basis, but an exact tree's basis changes only time, and
  the range queries here run on the brute-force engine.

Every sweep returns (knob value, elapsed seconds, ARI, AMI) points that
the figure benchmarks print as time-vs-AMI curves.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.clustering import BlockDBSCAN, DBSCANPlusPlus, KNNBlockDBSCAN
from repro.core import LAFDBSCAN, LAFDBSCANPlusPlus, predicted_core_ratio
from repro.engine_config import ExecutionConfig
from repro.estimators.base import CardinalityEstimator
from repro.experiments.runner import run_method
from repro.metrics.ari import adjusted_rand_index
from repro.metrics.mutual_info import adjusted_mutual_info

__all__ = [
    "TradeoffPoint",
    "sweep_laf_alpha",
    "sweep_dbscanpp",
    "sweep_laf_dbscanpp",
    "sweep_knn_block",
    "sweep_block_dbscan",
    "DEFAULT_ALPHAS",
    "DEFAULT_DELTAS",
]

DEFAULT_ALPHAS: tuple[float, ...] = (1.1, 1.5, 2.0, 3.0, 5.0, 8.0, 11.0, 15.0)
DEFAULT_DELTAS: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
DEFAULT_BRANCHINGS: tuple[int, ...] = (3, 6, 10, 20)
DEFAULT_CHECKS: tuple[float, ...] = (0.001, 0.01, 0.1, 0.3)


@dataclasses.dataclass(frozen=True)
class TradeoffPoint:
    """One point on a method's speed-quality curve."""

    method: str
    knob: str
    value: float
    elapsed_seconds: float
    ari: float
    ami: float

    def as_row(self) -> dict[str, object]:
        return {
            "method": self.method,
            "knob": self.knob,
            "value": self.value,
            "time_s": round(self.elapsed_seconds, 4),
            "ARI": round(self.ari, 4),
            "AMI": round(self.ami, 4),
        }


def _score(
    method: str, knob: str, value: float, clusterer, X: np.ndarray, gt: np.ndarray
) -> TradeoffPoint:
    result, elapsed = run_method(clusterer, X)
    return TradeoffPoint(
        method=method,
        knob=knob,
        value=float(value),
        elapsed_seconds=elapsed,
        ari=adjusted_rand_index(gt, result.labels),
        ami=adjusted_mutual_info(gt, result.labels),
    )


def sweep_laf_alpha(
    X: np.ndarray,
    gt_labels: np.ndarray,
    estimator: CardinalityEstimator,
    eps: float,
    tau: int,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    seed: int = 0,
    execution: ExecutionConfig | None = None,
) -> list[TradeoffPoint]:
    """LAF-DBSCAN trade-off: vary the error factor (paper: 1.1-15)."""
    return [
        _score(
            "LAF-DBSCAN",
            "alpha",
            alpha,
            LAFDBSCAN(
                eps=eps,
                tau=tau,
                estimator=estimator,
                alpha=alpha,
                seed=seed,
                execution=execution,
            ),
            X,
            gt_labels,
        )
        for alpha in alphas
    ]


def _derive_p(
    X: np.ndarray,
    estimator: CardinalityEstimator,
    eps: float,
    tau: int,
    delta: float,
) -> float:
    r_c = predicted_core_ratio(estimator, X, eps, tau)
    return float(np.clip(delta + r_c, 0.01, 1.0))


def sweep_dbscanpp(
    X: np.ndarray,
    gt_labels: np.ndarray,
    estimator: CardinalityEstimator,
    eps: float,
    tau: int,
    deltas: Sequence[float] = DEFAULT_DELTAS,
    seed: int = 0,
    execution: ExecutionConfig | None = None,
) -> list[TradeoffPoint]:
    """DBSCAN++ trade-off: vary the sample-fraction offset delta."""
    return [
        _score(
            "DBSCAN++",
            "delta",
            delta,
            DBSCANPlusPlus(
                eps=eps,
                tau=tau,
                p=_derive_p(X, estimator, eps, tau, delta),
                seed=seed,
                execution=execution,
            ),
            X,
            gt_labels,
        )
        for delta in deltas
    ]


def sweep_laf_dbscanpp(
    X: np.ndarray,
    gt_labels: np.ndarray,
    estimator: CardinalityEstimator,
    eps: float,
    tau: int,
    deltas: Sequence[float] = DEFAULT_DELTAS,
    seed: int = 0,
    execution: ExecutionConfig | None = None,
) -> list[TradeoffPoint]:
    """LAF-DBSCAN++ trade-off: same delta sweep, alpha fixed at 1.0."""
    return [
        _score(
            "LAF-DBSCAN++",
            "delta",
            delta,
            LAFDBSCANPlusPlus(
                eps=eps,
                tau=tau,
                estimator=estimator,
                p=_derive_p(X, estimator, eps, tau, delta),
                alpha=1.0,
                seed=seed,
                execution=execution,
            ),
            X,
            gt_labels,
        )
        for delta in deltas
    ]


def sweep_knn_block(
    X: np.ndarray,
    gt_labels: np.ndarray,
    eps: float,
    tau: int,
    branchings: Sequence[int] = DEFAULT_BRANCHINGS,
    checks: Sequence[float] = DEFAULT_CHECKS,
    seed: int = 0,
    execution: ExecutionConfig | None = None,
) -> list[TradeoffPoint]:
    """KNN-BLOCK trade-off: branching 3-20 x leaves ratio 0.001-0.3.

    The knob value reported per point is the checks ratio; branching
    varies across sub-sweeps (one point per combination).
    """
    points = []
    for branching in branchings:
        for ratio in checks:
            points.append(
                _score(
                    "KNN-BLOCK",
                    f"branching={branching},checks",
                    ratio,
                    KNNBlockDBSCAN(
                        eps=eps,
                        tau=tau,
                        branching=branching,
                        checks_ratio=ratio,
                        seed=seed,
                        execution=execution,
                    ),
                    X,
                    gt_labels,
                )
            )
    return points


def sweep_block_dbscan(
    X: np.ndarray,
    gt_labels: np.ndarray,
    eps: float,
    tau: int,
    execution: ExecutionConfig | None = None,
) -> list[TradeoffPoint]:
    """BLOCK-DBSCAN's one trade-off point: RNT 10 (see the module docstring)."""
    return [
        _score(
            "BLOCK-DBSCAN",
            "rnt",
            10,
            BlockDBSCAN(eps=eps, tau=tau, rnt=10, execution=execution),
            X,
            gt_labels,
        )
    ]
