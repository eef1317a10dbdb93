"""A refit repeats the first fit: seeds are per-fit values.

Every class that takes a seed keeps it and derives its generator inside
each ``fit``/``build``, so fitting one instance twice on the same data
gives the same result as fitting it once. For a clusterer that is the
labels and core mask; for an estimator, the sample, pivots or weights
it keeps; for the k-means tree, its leaves.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import DBSCANPlusPlus, KNNBlockDBSCAN
from repro.core import LAFDBSCAN, LAFDBSCANPlusPlus
from repro.estimators import (
    ExactCardinalityEstimator,
    KDECardinalityEstimator,
    MLPRegressor,
    RadialHistogramEstimator,
    RMICardinalityEstimator,
    SamplingCardinalityEstimator,
)
from repro.index import KMeansTree

EPS, TAU = 0.5, 5


def labels_of(clusterer):
    def fit(X):
        result = clusterer.fit(X)
        return [result.labels, result.core_mask]

    return fit


def kept(estimator, *attrs):
    def fit(X):
        estimator.fit(X)
        return [getattr(estimator, attr) for attr in attrs]

    return fit


def mlp_weights(model):
    def fit(X):
        y = X[:, 0] - 0.5 * X[:, 1]
        model.fit(X, y)
        return [*model._weights, *model._biases]

    return fit


def rmi_weights(estimator):
    def fit(X):
        estimator.fit(X)
        return [
            w
            for stage, n_models in enumerate(estimator.stages)
            for index in range(n_models)
            for w in estimator.stage_model(stage, index)._weights
        ]

    return fit


def rmi_root_network(estimator):
    """The root network of an RMI fit, refit on the RMI's training set:
    the RMI hands each network a seed, not a generator."""

    def fit(X):
        if estimator.training_set_ is None:
            estimator.fit(X)
        training = estimator.training_set_
        model = estimator.stage_model(0, 0).fit(training.features, training.fractions)
        return [*model._weights, *model._biases]

    return fit


def tree_leaves(tree):
    def fit(X):
        tree.build(X)
        leaves, pending = [], [tree._root]
        while pending:
            node = pending.pop()
            if node.is_leaf:
                leaves.append(node.point_indices)
            else:
                pending.extend(node.children)
        return leaves

    return fit


def sampling_estimator():
    return SamplingCardinalityEstimator(sample_size=20, seed=0)


CASES = {
    "dbscan++-uniform": lambda: labels_of(DBSCANPlusPlus(EPS, TAU, p=0.3, seed=0)),
    "dbscan++-k-center": lambda: labels_of(
        DBSCANPlusPlus(EPS, TAU, p=0.3, init="k-center", seed=0)
    ),
    "laf-dbscan++": lambda: labels_of(
        LAFDBSCANPlusPlus(
            EPS, TAU, estimator=ExactCardinalityEstimator(), p=0.3, alpha=1.5, seed=0
        )
    ),
    "laf-dbscan": lambda: labels_of(
        LAFDBSCAN(EPS, TAU, estimator=ExactCardinalityEstimator(), alpha=1.5, seed=0)
    ),
    "knn-block": lambda: labels_of(KNNBlockDBSCAN(EPS, TAU, checks_ratio=0.3, seed=0)),
    "sampling": lambda: kept(sampling_estimator(), "_sample"),
    "kde": lambda: kept(KDECardinalityEstimator(sample_size=20, seed=0), "_sample"),
    "histogram": lambda: kept(
        RadialHistogramEstimator(n_pivots=4, seed=0), "_pivots", "_cdfs"
    ),
    "rmi": lambda: rmi_weights(
        RMICardinalityEstimator(
            hidden_layers=(8,), epochs=3, n_train_queries=30, seed=0
        )
    ),
    "rmi-root-network": lambda: rmi_root_network(
        RMICardinalityEstimator(
            hidden_layers=(8,), epochs=3, n_train_queries=30, seed=0
        )
    ),
    "mlp": lambda: mlp_weights(MLPRegressor(hidden_layers=(8,), epochs=3, seed=0)),
    "kmeans-tree": lambda: tree_leaves(KMeansTree(branching=3, leaf_size=8, seed=0)),
}


@pytest.mark.parametrize("case", CASES)
def test_refit_repeats_first_fit(case, clusterable_data):
    fit = CASES[case]()
    first = fit(clusterable_data)
    second = fit(clusterable_data)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert np.array_equal(a, b), case
    fresh = CASES[case]()(clusterable_data)
    for a, b in zip(first, fresh):
        assert np.array_equal(a, b), case
