"""Exact (oracle) cardinality estimator.

Counts neighbors by brute force instead of predicting them. Useless for
acceleration (it *is* the range query), but invaluable for testing and
ablation: with this oracle and ``alpha = 1``, LAF-DBSCAN provably
reproduces original DBSCAN exactly (no false predictions exist), which
the integration tests assert. It also upper-bounds the quality any
learned estimator can reach at a given ``alpha``.
"""

from __future__ import annotations

import numpy as np

from repro.estimators.base import CardinalityEstimator
from repro.index.brute_force import BruteForceIndex

__all__ = ["ExactCardinalityEstimator"]


class ExactCardinalityEstimator(CardinalityEstimator):
    """Oracle that returns exact neighbor counts over the bound dataset."""

    def __init__(self, metric: str = "cosine") -> None:
        self.metric = metric
        self._index: BruteForceIndex | None = None

    def fit(self, X_train: np.ndarray) -> "ExactCardinalityEstimator":
        """No-op: the oracle has nothing to learn."""
        return self

    def bind(self, X_target: np.ndarray) -> "ExactCardinalityEstimator":
        bound = super().bind(X_target)
        bound._index = BruteForceIndex(metric=self.metric).build(
            np.asarray(X_target, dtype=np.float64)
        )
        return bound

    def predict_fraction(self, Q: np.ndarray, eps: float) -> np.ndarray:
        counts = self._counts(Q, eps)
        return counts / self.n_target

    def estimate_many(self, Q: np.ndarray, eps: float) -> np.ndarray:
        return self._counts(Q, eps)

    def _counts(self, Q: np.ndarray, eps: float) -> np.ndarray:
        if self._index is None:
            from repro.exceptions import NotFittedError

            raise NotFittedError("ExactCardinalityEstimator requires bind() first")
        return self._index.batch_range_count(np.atleast_2d(Q), eps).astype(np.float64)
