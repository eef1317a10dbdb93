"""``ClusterModel.predict``'s one kernel equals the two-step rule.

The oracle is the rule predict ran before
:func:`~repro.distances.matrix.nearest_within`: per query block, a
batched range query against the cores
(``BruteForceIndex.batch_range_query``), then
:func:`~repro.distances.matrix.nearest_candidates` over each query's
answer. Every core carries its own label here, so the labels name the
core each query picked and exact ties are checked too: duplicated
cores, queries equal to a core (distance-0 ties), queries with no core
within ``eps``, ``query_block`` 1, 7 and the default, core-less models,
1-d queries and empty batches, in both metrics.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import normalize_rows
from repro.distances.matrix import nearest_candidates
from repro.engine_config import DEFAULT_ENGINE_BLOCK, ExecutionConfig
from repro.index import BruteForceIndex
from repro.persistence import ClusterModel

METRICS = ["cosine", "euclidean"]


def two_step_labels(model: ClusterModel, Q: np.ndarray) -> np.ndarray:
    """The range query + candidate select over ``model``'s cores."""
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    out = np.full(Q.shape[0], -1, dtype=np.int64)
    if not model.core_mask.any():
        return out
    cores = model.points[model.core_mask]
    core_labels = model.labels[model.core_mask]
    index = BruteForceIndex(metric=model.metric).build(cores)
    block = model.execution.query_block
    for lo in range(0, Q.shape[0], block):
        q = Q[lo : lo + block]
        candidates = index.batch_range_query(q, model.eps)
        nearest = nearest_candidates(q, cores, candidates, model.metric.name)
        found = nearest >= 0
        out[lo : lo + q.shape[0]][found] = core_labels[nearest[found]]
    return out


def one_label_per_core(points, core_mask, eps, metric, query_block) -> ClusterModel:
    labels = np.full(points.shape[0], -1, dtype=np.int64)
    labels[core_mask] = np.arange(np.count_nonzero(core_mask))
    return ClusterModel(
        points,
        labels,
        core_mask,
        algo="dbscan",
        params={"eps": eps},
        metric=metric,
        execution=ExecutionConfig(query_block=query_block),
    )


@given(
    seed=st.integers(0, 10_000),
    metric=st.sampled_from(METRICS),
    dim=st.sampled_from([2, 3, 8]),
    n=st.integers(1, 40),
    n_duplicates=st.integers(0, 10),
    core_share=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    n_queries=st.integers(0, 30),
    n_equal=st.integers(0, 6),
    eps=st.floats(0.05, 1.5),
    query_block=st.sampled_from([1, 7, DEFAULT_ENGINE_BLOCK]),
)
@settings(max_examples=150, deadline=None)
def test_predict_equals_the_two_step_rule(
    seed,
    metric,
    dim,
    n,
    n_duplicates,
    core_share,
    n_queries,
    n_equal,
    eps,
    query_block,
):
    rng = np.random.default_rng(seed)
    points = normalize_rows(rng.normal(size=(n, dim)))
    points = np.vstack([points, points[rng.integers(n, size=n_duplicates)]])
    core_mask = rng.random(points.shape[0]) < core_share
    model = one_label_per_core(points, core_mask, eps, metric, query_block)
    Q = np.vstack(
        [
            normalize_rows(rng.normal(size=(n_queries, dim))),
            points[rng.integers(points.shape[0], size=n_equal)],
        ]
    )
    assert np.array_equal(model.predict(Q), two_step_labels(model, Q))
    if Q.shape[0]:
        assert np.array_equal(model.predict(Q[0]), two_step_labels(model, Q[:1]))


@pytest.mark.parametrize("metric", METRICS)
def test_mirror_tie_goes_to_the_lower_core(metric):
    # (cos t, sin t) and (cos t, -sin t) are at the same float64
    # distance from (1, 0), bit for bit, in both metrics.
    theta = np.radians([40.0, -40.0])
    points = np.column_stack([np.cos(theta), np.sin(theta)])
    query = np.array([[1.0, 0.0]])
    for order in (points, points[::-1]):
        model = one_label_per_core(order, np.ones(2, dtype=bool), 0.9, metric, 7)
        assert model.predict(query).tolist() == [0]
        assert np.array_equal(model.predict(query), two_step_labels(model, query))


@pytest.mark.parametrize("metric", METRICS)
def test_core_less_model_and_empty_batch(metric):
    points = normalize_rows(np.random.default_rng(3).normal(size=(5, 4)))
    model = one_label_per_core(points, np.zeros(5, dtype=bool), 0.5, metric, 7)
    assert model.predict(points).tolist() == [-1] * 5
    assert model.predict(points[0]).tolist() == [-1]
    assert model.predict(np.empty((0, 4))).shape == (0,)
