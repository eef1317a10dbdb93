"""Shared clustering result type and the clusterer interface."""

from __future__ import annotations

import abc
import contextlib
import dataclasses

import numpy as np

from repro.distances.metric import COSINE, Metric, get_metric
from repro.engine_config import ExecutionConfig, IndexSpec
from repro.exceptions import InvalidParameterError
from repro.index.brute_force import BruteForceIndex
from repro.index.engine import NeighborhoodCache, PerPointQueries

__all__ = [
    "NOISE",
    "ClusteringResult",
    "Clusterer",
    "canonicalize_labels",
    "resolve_index_spec",
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


def resolve_index_spec(spec: IndexSpec | None, metric: Metric):
    """Resolve an execution config's index spec under a host's metric.

    A named spec carries no metric of its own, so the host's metric is
    threaded into backends that take one (brute force) — otherwise
    ``IndexSpec("brute_force")`` would silently answer cosine queries
    under a euclidean host. The grid is tied to the unit sphere by its
    Equation 1 conversion, so naming it under a non-cosine metric is a
    configuration error, not a silent degradation.

    ``spec`` None means a brute-force index in the host's metric. Shared
    by clusterer fits and :class:`~repro.persistence.ClusterModel`
    serving, so a loaded model resolves its query backend exactly like
    the fit that produced it.
    """
    if spec is None:
        return BruteForceIndex(metric=metric)
    if spec.name == "brute_force":
        if "metric" not in spec.kwargs:
            return BruteForceIndex(metric=metric, **spec.kwargs)
        spec_metric = get_metric(spec.kwargs["metric"])
        if spec_metric.name != metric.name:
            raise InvalidParameterError(
                f"IndexSpec metric {spec_metric.name!r} contradicts the "
                f"clusterer's metric {metric.name!r}; drop the "
                "spec's 'metric' kwarg to inherit the clusterer's"
            )
        return spec.make()
    if metric.name != COSINE.name:
        raise InvalidParameterError(
            f"index backend {spec.name!r} is tied to cosine distance "
            f"(Equation 1) and cannot serve metric={metric.name!r}; "
            "use a brute_force spec"
        )
    return spec.make()


class Clusterer(abc.ABC):
    """Interface of every clustering algorithm in this library.

    Construction fixes the hyperparameters; :meth:`fit` runs the
    algorithm on one dataset and returns a :class:`ClusteringResult`.

    The default metric is cosine distance (the paper's setting). DBSCAN
    and LAF-DBSCAN also accept ``metric="euclidean"`` (the paper's
    future-work extension); the tree/grid-based baselines are tied to
    the unit sphere by their Equation 1 conversions and stay cosine.

    Execution policy — backend choice, batching, sharding — is one
    declarative :class:`~repro.engine_config.ExecutionConfig` passed as
    ``execution``; :meth:`_engine` resolves it into the engine a fit
    queries through. Nothing about execution lives in global state, so
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

    def _make_index(self):
        """Resolve :attr:`execution`'s index spec in this clusterer's metric.

        Delegates to :func:`resolve_index_spec`, shared with the serving
        path.
        """
        return resolve_index_spec(self.execution.index, self.metric)

    @contextlib.contextmanager
    def _engine(self, X: np.ndarray, *, plan=None, prebuilt=None):
        """The shared engine lifecycle of every fit.

        Resolves :attr:`execution` into a query engine over ``X`` —
        :class:`~repro.index.engine.NeighborhoodCache` (batched path,
        handed the *unbuilt* backend so it builds exactly once,
        shard-first when sharding is configured) or
        :class:`~repro.index.engine.PerPointQueries` (the per-point
        reference path) — optionally pre-planning ``plan``, and closes
        it deterministically on exit. The ``finally`` matters: a fit
        raising mid-query pins its frame in the traceback, so without
        an explicit close a sharded executor's thread pool or worker
        connections would leak until gc.

        ``prebuilt`` hands over an already-built substrate instead of
        resolving one from the config (ρ-approximate DBSCAN's grid,
        which the algorithm also needs directly).
        """
        cfg = self.execution
        backend = self._make_index() if prebuilt is None else prebuilt
        if cfg.batch_queries:
            engine = NeighborhoodCache(
                backend,
                X,
                self.eps,
                block_size=cfg.query_block,
                sharding=cfg.sharding,
            )
        else:
            if prebuilt is None:
                backend.build(X)
            engine = PerPointQueries(backend, X, self.eps)
        try:
            if plan is not None:
                engine.plan(plan)
            yield engine
        finally:
            engine.close()

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
