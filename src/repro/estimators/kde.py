"""Kernel-density cardinality estimator (classical baseline).

Smooths the sampling estimator with a Gaussian kernel over the *distance
axis*: instead of the hard indicator ``d < eps``, each sample point
contributes ``Phi((eps - d) / h)`` — the probability that a point at
distance ``d`` falls inside the radius under kernel bandwidth ``h``.
This is the "kernel density estimation" style of traditional cardinality
estimation the paper's related-work section cites, adapted to the
bounded cosine-distance axis.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from repro.distances import check_unit_norm
from repro.estimators.base import CardinalityEstimator
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.rng import ensure_rng

__all__ = ["KDECardinalityEstimator"]


class KDECardinalityEstimator(CardinalityEstimator):
    """Gaussian-smoothed counting over a uniform sample.

    Parameters
    ----------
    sample_size:
        Retained sample rows.
    bandwidth:
        Kernel bandwidth on the cosine-distance axis. ``None`` picks
        Silverman's rule from the sample's pairwise distances.
    seed:
        Sampling seed.
    """

    def __init__(
        self,
        sample_size: int = 256,
        bandwidth: float | None = None,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if sample_size <= 0:
            raise InvalidParameterError(f"sample_size must be positive; got {sample_size}")
        if bandwidth is not None and bandwidth <= 0:
            raise InvalidParameterError(f"bandwidth must be positive; got {bandwidth}")
        self.sample_size = int(sample_size)
        self.bandwidth = bandwidth
        self.seed = seed
        self._sample: np.ndarray | None = None
        self._h: float | None = None

    def fit(self, X_train: np.ndarray) -> "KDECardinalityEstimator":
        X_train = check_unit_norm(X_train, name="X_train")
        n = X_train.shape[0]
        take = min(self.sample_size, n)
        idx = ensure_rng(self.seed).choice(n, size=take, replace=False)
        self._sample = X_train[idx]
        if self.bandwidth is not None:
            self._h = float(self.bandwidth)
        else:
            # Silverman's rule over a subsample of pairwise distances.
            probe = self._sample[: min(64, take)]
            dists = (1.0 - probe @ probe.T)[np.triu_indices(probe.shape[0], k=1)]
            sigma = float(dists.std()) if dists.size else 0.1
            self._h = max(1.06 * sigma * take ** (-1 / 5), 1e-3)
        return self

    def predict_fraction(self, Q: np.ndarray, eps: float) -> np.ndarray:
        if self._sample is None or self._h is None:
            raise NotFittedError("KDECardinalityEstimator.fit was not called")
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        dists = 1.0 - Q @ self._sample.T
        weights = ndtr((eps - dists) / self._h)
        return weights.mean(axis=1)
