"""Property-based round-trip tests for model persistence.

The persistence contract is *bit identity*: for every serving
configuration, ``load_model(model.save(path))`` must answer exactly what
the in-memory model answered — same labels, core mask and core
distances, same predictions — and must carry the same execution config,
so a restarted server fans prediction across the topology the fit used.
Hypothesis drives random datasets across both metrics, sharded and
unsharded (the sharded configs on the suite's worker pool), including
the awkward cases: a tiny ``eps`` (no cores unless rows
coincide, so every prediction is noise), duplicated points, empty query
batches, single-row queries and single-point datasets.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.distances import normalize_rows
from repro.engine_config import ExecutionConfig
from repro.index.sharded import ShardingConfig
from repro.persistence import MANIFEST_FILENAME

MAX_EXAMPLES = 25
TAU = 2

#: name -> the ExecutionConfig kwargs a model is fit (and later served)
#: under; a "sharding" entry holds the ShardingConfig kwargs other than
#: the pool's executor spec.
CONFIGS = {
    "default": {},
    "small_blocks": {"query_block": 7},
    "sharded_remote": {"sharding": {"n_shards": 3}},
    "sharded_rounds": {"sharding": {"n_shards": 4, "query_block": 16}},
}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def execution(request, worker_pool):
    kwargs = dict(CONFIGS[request.param])
    if "sharding" in kwargs:
        kwargs["sharding"] = ShardingConfig(
            executor=worker_pool.executor_spec(), **kwargs["sharding"]
        )
    return ExecutionConfig(**kwargs)


def dataset(seed: int, n: int, dim: int, dup: bool) -> np.ndarray:
    X = normalize_rows(np.random.default_rng(seed).normal(size=(n, dim)))
    if dup and n > 1:
        X[n // 2] = X[0]  # exact duplicate rows
    return X


def fit(execution, X: np.ndarray, eps: float, metric: str = "cosine"):
    return repro.fit_model(X, eps=eps, tau=TAU, metric=metric, execution=execution)


def assert_same_model(original, loaded):
    assert loaded.algo == original.algo
    assert loaded.params == original.params
    assert loaded.metric.name == original.metric.name
    assert loaded.execution == original.execution
    assert np.array_equal(loaded.points, original.points)
    assert np.array_equal(loaded.labels, original.labels)
    assert np.array_equal(loaded.core_mask, original.core_mask)
    assert np.array_equal(loaded.core_distances, original.core_distances)


def assert_same_predictions(original, loaded, Q):
    assert np.array_equal(loaded.predict(Q), original.predict(Q))
    empty = np.empty((0, Q.shape[1]))
    assert loaded.predict(empty).size == 0
    assert np.array_equal(loaded.predict(Q[0]), original.predict(Q[0]))


class TestModelRoundTrip:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 120),
        dim=st.integers(2, 24),
        eps=st.sampled_from([1e-6, 0.05, 0.4, 1.2]),
        metric=st.sampled_from(["cosine", "euclidean"]),
        dup=st.booleans(),
    )
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_bit_identical_predictions(
        self, execution, tmp_path_factory, seed, n, dim, eps, metric, dup
    ):
        X = dataset(seed, n, dim, dup)
        Q = dataset(seed + 1, min(n, 17), dim, dup=False)
        path = tmp_path_factory.mktemp("artifact") / "model"
        with fit(execution, X, eps, metric) as original:
            original.save(path)
            with repro.load_model(path) as loaded:
                assert_same_model(original, loaded)
                assert_same_predictions(original, loaded, Q)
                # Queries drawn from the training points themselves
                # (self-hits, duplicates) must round-trip too.
                assert_same_predictions(original, loaded, X[: min(n, 8)])

    def test_resave_is_stable(self, execution, tmp_path):
        # A loaded model saved again writes the same spec and the same
        # array bytes: nothing is coerced or dropped on the way through.
        X = dataset(3, 60, 8, dup=True)
        with fit(execution, X, 0.6) as model:
            model.save(tmp_path / "first")
        with repro.load_model(tmp_path / "first") as loaded:
            loaded.save(tmp_path / "second")
        first, second = (
            json.loads((tmp_path / d / MANIFEST_FILENAME).read_text())
            for d in ("first", "second")
        )
        assert second["spec"] == first["spec"]
        assert second["arrays"] == first["arrays"]
        assert second["metadata"] == first["metadata"]

    def test_copied_unverified_load_predicts_identically(self, execution, tmp_path):
        X = dataset(5, 60, 8, dup=False)
        Q = dataset(6, 30, 8, dup=False)
        with fit(execution, X, 0.6) as model:
            model.save(tmp_path / "model")
            loaded = repro.load_model(tmp_path / "model", mmap=False, verify=False)
            with loaded:
                assert_same_model(model, loaded)
                assert_same_predictions(model, loaded, Q)


@pytest.mark.parametrize("value", [False, True])
def test_saved_batch_queries_loads_and_predicts_identically(tmp_path, value):
    """A v1 manifest still carrying the retired ``batch_queries`` key loads
    (the key is dropped; every predict runs batched) and answers exactly
    what the same model saved today answers. Writers never emit it."""
    X = dataset(7, 60, 8, dup=True)
    Q = dataset(8, 30, 8, dup=False)
    with fit(ExecutionConfig(), X, 0.6) as model:
        model.save(tmp_path / "today")
    manifest = json.loads((tmp_path / "today" / MANIFEST_FILENAME).read_text())
    assert manifest["format_version"] == 1
    assert "batch_queries" not in manifest["spec"]["execution"]
    manifest["spec"]["execution"]["batch_queries"] = value
    shutil.copytree(tmp_path / "today", tmp_path / "old")
    (tmp_path / "old" / MANIFEST_FILENAME).write_text(json.dumps(manifest))
    with repro.load_model(tmp_path / "today") as today:
        with repro.load_model(tmp_path / "old") as old:
            assert_same_model(today, old)
            assert_same_predictions(today, old, Q)
            assert_same_predictions(today, old, X[:8])
            old.save(tmp_path / "resaved")
    resaved = json.loads((tmp_path / "resaved" / MANIFEST_FILENAME).read_text())
    assert "batch_queries" not in resaved["spec"]["execution"]
