"""Sampling-based cardinality estimator (classical baseline).

The traditional pre-learning approach the paper contrasts with: keep a
uniform sample of the data and scale up the sample's neighbor count.
Unbiased but high-variance at small radii/sample sizes — exactly the
regime DBSCAN's core test lives in, which is the motivation for learned
estimators.
"""

from __future__ import annotations

import numpy as np

from repro.distances import check_unit_norm
from repro.estimators.base import CardinalityEstimator
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.rng import ensure_rng

__all__ = ["SamplingCardinalityEstimator"]


class SamplingCardinalityEstimator(CardinalityEstimator):
    """Estimate fractions by exact counting within a uniform sample.

    Parameters
    ----------
    sample_size:
        Number of training rows retained (capped at the split size).
    seed:
        Sampling seed.
    """

    def __init__(
        self, sample_size: int = 256, seed: int | np.random.Generator | None = 0
    ) -> None:
        if sample_size <= 0:
            raise InvalidParameterError(
                f"sample_size must be positive; got {sample_size}"
            )
        self.sample_size = int(sample_size)
        self.seed = seed
        self._sample: np.ndarray | None = None

    def fit(self, X_train: np.ndarray) -> "SamplingCardinalityEstimator":
        X_train = check_unit_norm(X_train, name="X_train")
        n = X_train.shape[0]
        take = min(self.sample_size, n)
        idx = ensure_rng(self.seed).choice(n, size=take, replace=False)
        self._sample = X_train[idx]
        return self

    def predict_fraction(self, Q: np.ndarray, eps: float) -> np.ndarray:
        if self._sample is None:
            raise NotFittedError("SamplingCardinalityEstimator.fit was not called")
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        dists = 1.0 - Q @ self._sample.T
        return np.count_nonzero(dists < eps, axis=1) / self._sample.shape[0]
