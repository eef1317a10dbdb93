"""One-call clustering facade over the clusterer registry.

The paper's method matrix is six clusterers × sharded/unsharded
execution. Rather than hand-wiring constructors, this module exposes
the matrix as data: a name registry
(:func:`make_clusterer`) and a one-call entry point (:func:`cluster`)
that combine any algorithm with any
:class:`~repro.engine_config.ExecutionConfig`::

    import repro
    from repro import ExecutionConfig, ShardingConfig

    result = repro.cluster(X, algo="dbscan", eps=0.5, tau=5)
    result = repro.cluster(
        X,
        algo="laf-dbscan",
        eps=0.5,
        tau=5,
        estimator=estimator,
        execution=ExecutionConfig(
            sharding=ShardingConfig(n_shards=4, executor=pool.executor_spec()),
        ),
    )

where ``pool`` is a :class:`~repro.remote.pool.WorkerPool`; a bare
``ShardingConfig(n_shards=4)`` shards serially in the calling process.

``experiments.methods.build_method`` (the paper-facing registry with
Section 3.1's hyperparameter defaults) resolves through this facade.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.clustering import (
    DBSCAN,
    BlockDBSCAN,
    Clusterer,
    ClusteringResult,
    DBSCANPlusPlus,
    KNNBlockDBSCAN,
    RhoApproxDBSCAN,
)
from repro.core import LAFDBSCAN, LAFDBSCANPlusPlus
from repro.engine_config import ExecutionConfig
from repro.exceptions import InvalidParameterError

if TYPE_CHECKING:
    from pathlib import Path

    from repro.persistence import ClusterModel

__all__ = [
    "CLUSTERERS",
    "cluster",
    "clusterer_names",
    "fit_model",
    "load_model",
    "make_clusterer",
]

#: Registered clusterers, constructible by name. Read-only: the public
#: registry is part of the API surface, so it cannot be patched in place.
CLUSTERERS: Mapping[str, type[Clusterer]] = MappingProxyType(
    {
        "dbscan": DBSCAN,
        "dbscan++": DBSCANPlusPlus,
        "knn-block": KNNBlockDBSCAN,
        "block-dbscan": BlockDBSCAN,
        "rho-approx": RhoApproxDBSCAN,
        "laf-dbscan": LAFDBSCAN,
        "laf-dbscan++": LAFDBSCANPlusPlus,
    }
)

#: Accepted spelling variants (the registry is case-insensitive too).
_ALIASES = {
    "dbscanpp": "dbscan++",
    "laf-dbscanpp": "laf-dbscan++",
    "knn-block-dbscan": "knn-block",
    "rho-approx-dbscan": "rho-approx",
}


def clusterer_names() -> tuple[str, ...]:
    """The canonical names :func:`make_clusterer` accepts."""
    return tuple(sorted(CLUSTERERS))


def make_clusterer(
    name: str,
    *,
    execution: ExecutionConfig | None = None,
    **params: Any,
) -> Clusterer:
    """Instantiate a registered clusterer by name.

    ``name`` is case-insensitive (``"DBSCAN++"`` and ``"dbscan++"`` are
    the same method); ``params`` are the clusterer's constructor
    arguments (``eps``/``tau`` always, ``estimator`` for the LAF
    methods, ...); ``execution`` threads one
    :class:`~repro.engine_config.ExecutionConfig` through, configuring
    the engine block size and sharding of the fit without touching any
    global state.
    """
    key = str(name).strip().lower()
    key = _ALIASES.get(key, key)
    cls = CLUSTERERS.get(key)
    if cls is None:
        raise InvalidParameterError(
            f"unknown clusterer {name!r}; available: {', '.join(clusterer_names())}"
        )
    if execution is not None:
        params["execution"] = execution
    return cls(**params)


def cluster(
    X: np.ndarray,
    algo: str = "dbscan",
    *,
    execution: ExecutionConfig | None = None,
    **params: Any,
) -> ClusteringResult:
    """Cluster ``X`` with a registered algorithm in one call.

    Equivalent to ``make_clusterer(algo, execution=execution,
    **params).fit(X)``; returns the
    :class:`~repro.clustering.base.ClusteringResult`.
    """
    return make_clusterer(algo, execution=execution, **params).fit(X)


def fit_model(
    X: np.ndarray,
    algo: str = "dbscan",
    *,
    execution: ExecutionConfig | None = None,
    **params: Any,
) -> "ClusterModel":
    """Fit a registered algorithm and freeze it for serving.

    Equivalent to ``make_clusterer(algo, ...).fit_model(X)``; returns a
    :class:`~repro.persistence.ClusterModel` supporting
    ``predict(X_new)``, ``save(path)`` and (after a restart)
    :func:`load_model`.
    """
    return make_clusterer(algo, execution=execution, **params).fit_model(X)


def load_model(
    path: "str | Path", *, mmap: bool = True, verify: bool = True
) -> "ClusterModel":
    """Load a :class:`~repro.persistence.ClusterModel` saved with ``save``."""
    from repro.persistence import load_model as _load_model

    return _load_model(path, mmap=mmap, verify=verify)
