"""Shared clustering result type and the clusterer interface."""

from __future__ import annotations

import abc
import contextlib
import dataclasses

import numpy as np

from repro.distances.metric import COSINE, Metric, get_metric
from repro.engine_config import ExecutionConfig
from repro.exceptions import InvalidParameterError
from repro.index.sharded import resolve_engine_index

__all__ = [
    "NOISE",
    "ClusteringResult",
    "Clusterer",
    "canonicalize_labels",
]

#: Label value for noise points in every result of this library.
NOISE = -1


def canonicalize_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel clusters to ``0 .. k-1`` in order of first appearance.

    Noise (``-1``) is preserved. Makes results deterministic and
    comparable regardless of internal id assignment order. Vectorized:
    one ``np.unique(return_inverse)`` pass plus a first-appearance rank,
    no per-element Python loop.
    """
    labels = np.asarray(labels, dtype=np.int64)
    out = np.full_like(labels, NOISE)
    clustered = np.flatnonzero(labels != NOISE)
    if clustered.size == 0:
        return out
    uniq, inverse = np.unique(labels[clustered], return_inverse=True)
    # Position of each unique label's first appearance, then the rank of
    # those positions = the label's first-appearance order.
    first_pos = np.full(uniq.size, labels.size, dtype=np.int64)
    np.minimum.at(first_pos, inverse, clustered)
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[np.argsort(first_pos, kind="stable")] = np.arange(uniq.size)
    out[clustered] = rank[inverse]
    return out


@dataclasses.dataclass
class ClusteringResult:
    """Labels plus the operational statistics the paper analyses.

    Attributes
    ----------
    labels:
        Cluster id per point, ``-1`` for noise, clusters numbered
        ``0 .. k-1`` in first-appearance order.
    core_mask:
        Boolean core-point indicator where the algorithm determines it
        (None for methods that never materialize core status per point).
    stats:
        Method-specific counters, e.g. ``range_queries`` (executed range
        queries), ``cardest_calls`` / ``skipped_queries`` /
        ``fn_detected`` / ``merges`` for LAF methods.
    """

    labels: np.ndarray
    core_mask: np.ndarray | None = None
    stats: dict[str, int | float] = dataclasses.field(default_factory=dict)

    @property
    def n_points(self) -> int:
        return int(self.labels.shape[0])

    @property
    def n_clusters(self) -> int:
        non_noise = self.labels[self.labels != NOISE]
        return int(np.unique(non_noise).size)

    @property
    def noise_ratio(self) -> float:
        if self.labels.size == 0:
            return 0.0
        return float(np.count_nonzero(self.labels == NOISE) / self.labels.size)

    def cluster_members(self, cluster_id: int) -> np.ndarray:
        """Indices of the points in one cluster."""
        return np.flatnonzero(self.labels == cluster_id)


class Clusterer(abc.ABC):
    """Interface of every clustering algorithm in this library.

    Construction fixes the hyperparameters; :meth:`fit` runs the
    algorithm on one dataset and returns a :class:`ClusteringResult`.

    The default metric is cosine distance (the paper's setting). DBSCAN
    and LAF-DBSCAN also accept ``metric="euclidean"`` (the paper's
    future-work extension); the tree/grid-based baselines are tied to
    the unit sphere by their Equation 1 conversions and stay cosine.

    Execution policy — kernel block size and sharding — is one
    declarative :class:`~repro.engine_config.ExecutionConfig` passed as
    ``execution``; :meth:`_engine` resolves it into the index a fit
    queries. Nothing about execution lives in global state, so
    concurrent fits with different configurations cannot interfere.
    """

    #: Registry name of the algorithm (overridden per subclass); recorded
    #: in saved :class:`~repro.persistence.ClusterModel` artifacts.
    algo_name: str = ""

    def __init__(
        self,
        eps: float,
        tau: int,
        metric: str | Metric = COSINE,
        execution: ExecutionConfig | None = None,
    ) -> None:
        self.metric = get_metric(metric)
        self.metric.check_eps(eps)
        if tau < 1:
            raise InvalidParameterError(f"tau must be at least 1; got {tau}")
        self.eps = float(eps)
        self.tau = int(tau)
        if execution is None:
            execution = ExecutionConfig()
        elif not isinstance(execution, ExecutionConfig):
            raise InvalidParameterError(
                "execution must be an ExecutionConfig or None; "
                f"got {type(execution).__name__}"
            )
        self.execution = execution

    # ------------------------------------------------------------------
    # Execution resolution
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def _engine(self, X: np.ndarray):
        """The index every fit queries, closed deterministically on exit.

        :func:`~repro.index.sharded.resolve_engine_index` over ``X`` in
        this clusterer's metric, configured by :attr:`execution`: a
        :class:`~repro.index.brute_force.BruteForceIndex` with
        ``query_block``-row kernel blocks, or a
        :class:`~repro.index.sharded.ShardedIndex` when sharding is set.
        A fit knows up front which rows it queries, so it asks for them
        in one ``batch_range_query_rows`` (or ``_count_rows``) call and
        reads the neighbourhoods from the returned list. The
        ``finally`` matters: a fit raising mid-query pins its frame in
        the traceback, so without an explicit close a remote
        executor's worker connections would leak until gc.
        """
        cfg = self.execution
        index = resolve_engine_index(
            X, self.metric, cfg.sharding, block_size=cfg.query_block
        )
        try:
            yield index
        finally:
            index.close()

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def fit(self, X: np.ndarray) -> ClusteringResult:
        """Cluster the rows of ``X`` (unit-normalized vectors)."""

    def fit_predict(self, X: np.ndarray) -> np.ndarray:
        """Convenience: :meth:`fit` and return only the labels."""
        return self.fit(X).labels

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def model_params(self) -> dict:
        """JSON-safe hyperparameters recorded in a saved model.

        Subclasses extend with their own knobs; everything here must
        survive a JSON round-trip unchanged.
        """
        return {"eps": self.eps, "tau": self.tau, "metric": self.metric.name}

    def fit_model(self, X: np.ndarray):
        """Fit and freeze the result as a :class:`~repro.persistence.ClusterModel`.

        The model holds the labels, core mask and enough execution
        metadata to serve ``predict(X_new)`` and survive
        ``save(path)`` / :func:`repro.persistence.load_model`. Requires
        the algorithm to materialize per-point core status.
        """
        from repro.exceptions import PersistenceError
        from repro.persistence import ClusterModel

        X = self.metric.validate(X)
        result = self.fit(X)
        if result.core_mask is None:
            raise PersistenceError(
                f"{type(self).__name__} does not materialize per-point "
                "core status, so its fits cannot be frozen into a "
                "servable ClusterModel"
            )
        estimator = getattr(getattr(self, "laf", None), "estimator", None)
        return ClusterModel(
            points=X,
            labels=result.labels,
            core_mask=result.core_mask,
            algo=self.algo_name or type(self).__name__,
            params=self.model_params(),
            metric=self.metric,
            execution=self.execution,
            estimator=estimator,
        )
