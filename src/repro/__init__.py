"""LAF: Learned Accelerator Framework for angular-distance DBSCAN.

Reproduction of Wang & Wang, "Learned Accelerator Framework for
Angular-Distance-Based High-Dimensional DBSCAN" (EDBT 2023).

Quickstart::

    import repro
    from repro import ExecutionConfig, RMICardinalityEstimator, ShardingConfig
    from repro.data import load_dataset

    ds = load_dataset("MS-50k", scale=0.01, seed=0)
    train, test = ds.split()

    estimator = RMICardinalityEstimator(seed=0).fit(train)
    exact = repro.cluster(test, algo="dbscan", eps=0.55, tau=5)
    fast = repro.cluster(
        test,
        algo="laf-dbscan",
        eps=0.55,
        tau=5,
        estimator=estimator,
        alpha=ds.spec.alpha,
        execution=ExecutionConfig(sharding=ShardingConfig(n_shards=4)),
    )

Execution policy (index backend, batching, sharding) is one
declarative :class:`ExecutionConfig` threaded through every clusterer —
never global state. See ``examples/`` for full pipelines
and ``benchmarks/`` for the reproduction of every table and figure in
the paper.
"""

from repro.api import cluster, clusterer_names, fit_model, load_model, make_clusterer
from repro.clustering import (
    BlockDBSCAN,
    Clusterer,
    ClusteringResult,
    DBSCAN,
    DBSCANPlusPlus,
    KNNBlockDBSCAN,
    RhoApproxDBSCAN,
)
from repro.engine_config import ExecutionConfig, IndexSpec
from repro.core import (
    LAF,
    LAFDBSCAN,
    LAFDBSCANPlusPlus,
    PartialNeighborMap,
    post_process,
    predicted_core_ratio,
    select_alpha,
)
from repro.estimators import (
    CardinalityEstimator,
    ExactCardinalityEstimator,
    KDECardinalityEstimator,
    MLPRegressor,
    RMICardinalityEstimator,
    RadialHistogramEstimator,
    SamplingCardinalityEstimator,
)
from repro.exceptions import (
    DataValidationError,
    DeadlineExceededError,
    EstimatorError,
    InvalidParameterError,
    NotFittedError,
    PersistenceError,
    RemoteExecutorError,
    RemoteProtocolError,
    RemoteTimeoutError,
    ReproError,
    RetryExhaustedError,
    ServerClosedError,
    ServerOverloadedError,
    ServingError,
    WorkerUnavailableError,
)
from repro.index.sharded import ExecutorSpec, ShardingConfig
from repro.persistence import ClusterModel, load_index, save_index
from repro.metrics import (
    adjusted_mutual_info,
    adjusted_rand_index,
    missed_cluster_stats,
    noise_ratio,
)

__version__ = "1.0.0"

__all__ = [
    "BlockDBSCAN",
    "CardinalityEstimator",
    "ClusterModel",
    "Clusterer",
    "ClusteringResult",
    "DBSCAN",
    "DBSCANPlusPlus",
    "DataValidationError",
    "DeadlineExceededError",
    "EstimatorError",
    "ExactCardinalityEstimator",
    "ExecutionConfig",
    "ExecutorSpec",
    "IndexSpec",
    "InvalidParameterError",
    "KDECardinalityEstimator",
    "KNNBlockDBSCAN",
    "LAF",
    "LAFDBSCAN",
    "LAFDBSCANPlusPlus",
    "MLPRegressor",
    "NotFittedError",
    "PartialNeighborMap",
    "PersistenceError",
    "RMICardinalityEstimator",
    "RadialHistogramEstimator",
    "RemoteExecutorError",
    "RemoteProtocolError",
    "RemoteTimeoutError",
    "ReproError",
    "RetryExhaustedError",
    "RhoApproxDBSCAN",
    "SamplingCardinalityEstimator",
    "ServerClosedError",
    "ServerOverloadedError",
    "ServingError",
    "ShardingConfig",
    "WorkerUnavailableError",
    "adjusted_mutual_info",
    "adjusted_rand_index",
    "cluster",
    "clusterer_names",
    "fit_model",
    "load_index",
    "load_model",
    "make_clusterer",
    "missed_cluster_stats",
    "noise_ratio",
    "post_process",
    "save_index",
    "predicted_core_ratio",
    "select_alpha",
    "__version__",
]
