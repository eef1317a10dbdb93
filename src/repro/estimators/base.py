"""Abstract cardinality-estimator interface."""

from __future__ import annotations

import abc
import copy

import numpy as np

from repro.exceptions import NotFittedError

__all__ = ["CardinalityEstimator"]


class CardinalityEstimator(abc.ABC):
    """Predicts range-query result sizes without running the query.

    Lifecycle::

        estimator.fit(X_train)                # learn the data distribution
        bound = estimator.bind(X_target)      # a view on the clustered set
        counts = bound.estimate_many(Q, eps)

    ``fit`` learns *fractions* — the share of the distribution within a
    given cosine radius of a query — so the estimator transfers across
    dataset sizes. ``bind`` returns a shallow copy that records the
    target size for the fraction-to-count conversion (the exact oracle's
    copy also keeps the target data, which is its whole point), so the
    estimator itself stays unchanged.
    """

    _n_target: int | None = None

    @abc.abstractmethod
    def fit(self, X_train: np.ndarray) -> "CardinalityEstimator":
        """Learn the distribution from the training split; return self."""

    def bind(self, X_target: np.ndarray) -> "CardinalityEstimator":
        """A copy bound to the dataset it will estimate; ``self`` is unchanged."""
        bound = copy.copy(self)
        bound._n_target = int(np.asarray(X_target).shape[0])
        return bound

    @property
    def n_target(self) -> int:
        if self._n_target is None:
            raise NotFittedError(
                f"{type(self).__name__} has no bound target dataset; call bind()"
            )
        return self._n_target

    @abc.abstractmethod
    def predict_fraction(self, Q: np.ndarray, eps: float) -> np.ndarray:
        """Predicted fraction of the distribution within ``eps`` of each query."""

    def estimate_many(self, Q: np.ndarray, eps: float) -> np.ndarray:
        """Predicted neighbor counts in the bound target set, one per query."""
        fractions = np.clip(self.predict_fraction(np.atleast_2d(Q), eps), 0.0, 1.0)
        return fractions * self.n_target

    def estimate(self, q: np.ndarray, eps: float) -> float:
        """Predicted neighbor count for a single query (the paper's CardEst)."""
        return float(self.estimate_many(np.atleast_2d(q), eps)[0])
