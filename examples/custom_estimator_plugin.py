"""Extending LAF: plug a custom cardinality estimator into the framework.

LAF is generic over the estimator — anything implementing the
``CardinalityEstimator`` interface (fit / bind / predict_fraction) can
gate range queries. This example builds a tiny custom estimator (a
k-nearest-pivot interpolator), plugs it into both LAF-DBSCAN and
LAF-DBSCAN++, and compares it against the library's estimators.

Run:  python examples/custom_estimator_plugin.py
"""

import os
import time

import numpy as np

from repro import (
    CardinalityEstimator,
    DBSCAN,
    ExactCardinalityEstimator,
    LAFDBSCAN,
    SamplingCardinalityEstimator,
)
from repro.data import load_dataset
from repro.metrics import adjusted_mutual_info

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "0.04"))
EPS, TAU = 0.55, 5


class PivotInterpolationEstimator(CardinalityEstimator):
    """Custom estimator: average the exact counts of the k nearest pivots.

    At fit time, sample pivots from the training split and precompute
    their exact neighbor fractions at a radius grid. At query time,
    average the fractions of the query's ``k`` nearest pivots at the
    nearest grid radius — no neural network, one matrix product.
    """

    def __init__(self, n_pivots: int = 64, k: int = 4, seed: int = 0) -> None:
        self.n_pivots = n_pivots
        self.k = k
        self.seed = seed
        self._pivots: np.ndarray | None = None
        self._radii = np.round(np.arange(0.1, 0.95, 0.1), 2)
        self._fractions: np.ndarray | None = None  # (n_pivots, n_radii)

    def fit(self, X_train: np.ndarray) -> "PivotInterpolationEstimator":
        n = X_train.shape[0]
        # A generator per fit: a refit on the same split keeps its pivots.
        rng = np.random.default_rng(self.seed)
        idx = rng.choice(n, size=min(self.n_pivots, n), replace=False)
        self._pivots = X_train[idx]
        dists = 1.0 - self._pivots @ X_train.T  # (pivots, n)
        self._fractions = np.stack(
            [(dists < r).mean(axis=1) for r in self._radii], axis=1
        )
        return self

    def predict_fraction(self, Q: np.ndarray, eps: float) -> np.ndarray:
        Q = np.atleast_2d(Q)
        radius_idx = int(np.abs(self._radii - eps).argmin())
        pivot_dists = 1.0 - Q @ self._pivots.T
        k = min(self.k, self._pivots.shape[0])
        nearest = np.argpartition(pivot_dists, k - 1, axis=1)[:, :k]
        return self._fractions[nearest, radius_idx].mean(axis=1)


def main() -> None:
    dataset = load_dataset("MS-50k", scale=SCALE, seed=0)
    train, test = dataset.split()
    gt = DBSCAN(eps=EPS, tau=TAU).fit(test)
    print(
        f"Test split {test.shape[0]} x {dataset.dim}; "
        f"DBSCAN: {gt.n_clusters} clusters\n"
    )

    estimators = {
        "custom-pivot-interp": PivotInterpolationEstimator(seed=0).fit(train),
        "sampling": SamplingCardinalityEstimator(sample_size=256, seed=0).fit(train),
        "exact-oracle": ExactCardinalityEstimator().fit(train),
    }
    header = f"{'estimator':22s} {'time':>8s} {'AMI':>7s} {'skipped':>8s} {'repaired':>9s}"
    print(header)
    print("-" * len(header))
    for name, estimator in estimators.items():
        clusterer = LAFDBSCAN(eps=EPS, tau=TAU, estimator=estimator, alpha=1.2)
        started = time.perf_counter()
        result = clusterer.fit(test)
        elapsed = time.perf_counter() - started
        print(
            f"{name:22s} {elapsed:7.3f}s "
            f"{adjusted_mutual_info(gt.labels, result.labels):7.3f} "
            f"{result.stats['skipped_queries']:8d} "
            f"{result.stats['merges']:9d}"
        )


if __name__ == "__main__":
    main()
