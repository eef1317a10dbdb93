"""Pivot-based radial histogram estimator (classical baseline).

Precomputes, for a handful of pivot points, the empirical CDF of cosine
distances from the pivot to the training data. A query is answered from
its nearest pivot's CDF, shifted by the query-pivot distance (a crude
triangle-inequality correction in the converted Euclidean metric). Very
cheap, very coarse — the kind of non-learned synopsis learned estimators
supersede, included for the ablation study.
"""

from __future__ import annotations

import numpy as np

from repro.distances import check_unit_norm
from repro.estimators.base import CardinalityEstimator
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.rng import ensure_rng

__all__ = ["RadialHistogramEstimator"]


class RadialHistogramEstimator(CardinalityEstimator):
    """Per-pivot distance CDFs with nearest-pivot lookup.

    Parameters
    ----------
    n_pivots:
        Number of pivots sampled from the training split.
    n_bins:
        Histogram resolution on the cosine-distance axis [0, 2].
    seed:
        Pivot-sampling seed.
    """

    def __init__(
        self,
        n_pivots: int = 16,
        n_bins: int = 64,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if n_pivots <= 0 or n_bins <= 0:
            raise InvalidParameterError("n_pivots and n_bins must be positive")
        self.n_pivots = int(n_pivots)
        self.n_bins = int(n_bins)
        self.seed = seed
        self._pivots: np.ndarray | None = None
        self._cdfs: np.ndarray | None = None  # (n_pivots, n_bins)
        self._bin_edges: np.ndarray | None = None

    def fit(self, X_train: np.ndarray) -> "RadialHistogramEstimator":
        X_train = check_unit_norm(X_train, name="X_train")
        n = X_train.shape[0]
        take = min(self.n_pivots, n)
        idx = ensure_rng(self.seed).choice(n, size=take, replace=False)
        self._pivots = X_train[idx]
        self._bin_edges = np.linspace(0.0, 2.0, self.n_bins + 1)
        cdfs = np.empty((take, self.n_bins))
        for i, pivot in enumerate(self._pivots):
            dists = 1.0 - X_train @ pivot
            hist, _ = np.histogram(dists, bins=self._bin_edges)
            cdfs[i] = np.cumsum(hist) / n
        self._cdfs = cdfs
        return self

    def predict_fraction(self, Q: np.ndarray, eps: float) -> np.ndarray:
        if self._pivots is None:
            raise NotFittedError("RadialHistogramEstimator.fit was not called")
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        pivot_dists = 1.0 - Q @ self._pivots.T
        nearest = pivot_dists.argmin(axis=1)
        fractions = np.empty(Q.shape[0])
        for row, pivot_idx in enumerate(nearest):
            # Look the radius up in the pivot's CDF as if the query sat at
            # the pivot; nearest-pivot choice keeps the offset small.
            bin_idx = np.searchsorted(self._bin_edges, eps, side="right") - 1
            bin_idx = int(np.clip(bin_idx, 0, self.n_bins - 1))
            fractions[row] = self._cdfs[pivot_idx, bin_idx]
        return fractions
