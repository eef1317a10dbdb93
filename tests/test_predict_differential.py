"""Differential tests of the serving path against the fits it freezes.

The predict contract (see :class:`repro.persistence.ClusterModel` and
``docs/persistence.md``): a new point takes the label of its nearest
core point within ``eps`` (strict ``<``, ties to the smallest training
index), noise otherwise. Because every core point is at distance zero of
itself and mutually-zero-distance cores always share a cluster,
``predict(X_train)`` must reproduce the fit labels on **every core
point of every clusterer** — that is the differential anchor. Border
points are only pinned, not required to match the fit: a border in two
clusters' reach is assigned in discovery order by the fit but by
proximity by predict (both are valid DBSCAN outputs; the ambiguity is
inherent to border points).

A loaded model must predict identically to the in-memory model it was
saved from — bit-identical labels on the same queries — and by default
serves its training points straight from a read-only memory map.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.distances import normalize_rows
from repro.estimators import ExactCardinalityEstimator
from repro.exceptions import DataValidationError
from repro.persistence import ClusterModel
from repro.testing import make_blobs_on_sphere

EPS = 0.4
TAU = 3

#: algo name -> extra constructor params (full-sample for the sampling
#: methods, so the core set is deterministic and covers the blobs).
ALGOS = {
    "dbscan": {},
    "dbscan++": {"p": 1.0},
    "knn-block": {},
    "block-dbscan": {},
    "rho-approx": {},
    "laf-dbscan": {},
    "laf-dbscan++": {"p": 1.0},
}


def algo_params(algo: str) -> dict:
    params = dict(ALGOS[algo])
    if algo.startswith("laf"):
        params["estimator"] = ExactCardinalityEstimator()
    return params


@pytest.fixture(scope="module")
def blobs() -> np.ndarray:
    X, _ = make_blobs_on_sphere(20, 4, 16, seed=1)
    noise = normalize_rows(np.random.default_rng(5).normal(size=(15, 16)))
    return np.vstack([X, noise])


@pytest.mark.parametrize("algo", sorted(ALGOS))
class TestPredictReproducesFit:
    def test_train_set_cores_keep_their_labels(self, algo, blobs):
        model = repro.fit_model(blobs, algo, eps=EPS, tau=TAU, **algo_params(algo))
        with model:
            assert model.n_cores > 0  # the fixture must actually exercise cores
            predicted = model.predict(blobs)
            cores = model.core_mask
            assert np.array_equal(predicted[cores], model.labels[cores])
            # Non-core predictions are the nearest-core rule: never a
            # label the fit didn't produce, noise only outside every
            # eps-ball (checked indirectly: any point within eps of a
            # core cannot be noise).
            within = model.core_distances < EPS
            assert not np.any(predicted[within] == -1)
            assert np.all(predicted[~within] == -1)

    def test_loaded_model_predicts_identically(self, algo, blobs, tmp_path):
        queries = normalize_rows(
            np.random.default_rng(9).normal(size=(50, blobs.shape[1]))
        )
        model = repro.fit_model(blobs, algo, eps=EPS, tau=TAU, **algo_params(algo))
        with model:
            expected_train = model.predict(blobs)
            expected_new = model.predict(queries)
            model.save(tmp_path / "model")
        loaded = repro.load_model(tmp_path / "model")
        with loaded:
            assert np.array_equal(loaded.predict(blobs), expected_train)
            assert np.array_equal(loaded.predict(queries), expected_new)
            assert loaded.algo == model.algo
            assert loaded.params == model.params
            assert np.array_equal(loaded.labels, model.labels)
            assert np.array_equal(loaded.core_mask, model.core_mask)
            assert np.array_equal(loaded.core_distances, model.core_distances)


def predict_loop(model: ClusterModel, Q: np.ndarray) -> np.ndarray:
    """The per-row select ``predict`` ran before the blocked kernel.

    Nearest core within ``eps`` by the metric's float64 one-to-many
    distance, exact ties to the smallest training index.
    """
    cores = np.flatnonzero(model.core_mask)
    out = np.full(len(Q), -1, dtype=np.int64)
    for i, q in enumerate(Q):
        d = model.metric.distance_to_many(q, model.points[cores])
        row = np.flatnonzero(d < model.eps)
        if row.size:
            nearest = d[row].min()
            out[i] = model.labels[cores[row[d[row] == nearest]].min()]
    return out


def is_memory_mapped(arr) -> bool:
    """Whether ``arr`` is (a view of) a ``np.memmap``.

    ``np.asarray`` on a memmap returns a plain ``ndarray`` view whose
    ``.base`` chain ends at the map — still zero-copy.
    """
    while arr is not None:
        if isinstance(arr, np.memmap):
            return True
        arr = arr.base
    return False


def test_loaded_points_are_memory_mapped(blobs, tmp_path):
    with repro.fit_model(blobs, eps=EPS, tau=TAU) as model:
        model.save(tmp_path / "model")
    with repro.load_model(tmp_path / "model") as loaded:
        assert is_memory_mapped(loaded.points)
        assert not loaded.points.flags.writeable
        assert np.array_equal(loaded.points, blobs)
    with repro.load_model(tmp_path / "model", mmap=False) as copied:
        assert not is_memory_mapped(copied.points)
        assert np.array_equal(copied.points, blobs)


class TestPredictSemantics:
    """The pinned tie/edge behavior of the nearest-core rule."""

    def test_tie_goes_to_smallest_training_index(self):
        # Two exactly duplicated core points in *different* positions of
        # the training set but the same cluster; a query at their shared
        # location must take the first one's label (which is the same —
        # duplicates are mutually in-neighborhood). Construct instead two
        # distinct clusters equidistant from the query: the tie must
        # resolve to the smaller training index's cluster.
        theta = np.pi / 3
        a = np.array([1.0, 0.0])
        b = np.array([np.cos(2 * theta), np.sin(2 * theta)])
        mid = np.array([np.cos(theta), np.sin(theta)])
        X = np.vstack([np.tile(a, (3, 1)), np.tile(b, (3, 1))])
        model = repro.fit_model(X, "dbscan", eps=0.1, tau=3)
        with model:
            assert model.n_clusters == 2
            # mid is strictly within eps of nothing (cos distance to both
            # clusters is 1 - cos(60°) = 0.5): noise at eps=0.1 ...
            assert model.predict(mid)[0] == -1
        # ... and at eps=0.6 equidistant from both: the tie picks the
        # cluster of training index 0.
        model = repro.fit_model(X, "dbscan", eps=0.6, tau=3)
        with model:
            assert model.predict(mid)[0] == model.labels[0]

    def test_border_points_reassign_by_proximity(self):
        """A fit border point may flip to its *nearest* core's cluster.

        This is the documented fit/predict divergence: fit assigns
        borders in discovery order, predict by proximity. The test pins
        the predict side (nearest core wins) rather than demanding
        fit-equality for non-core points.
        """
        X, _ = make_blobs_on_sphere(20, 3, 8, seed=2)
        model = repro.fit_model(X, "dbscan", eps=EPS, tau=TAU)
        with model:
            predicted = model.predict(X)
            cores = np.flatnonzero(model.core_mask)
            for i in np.flatnonzero(~model.core_mask):
                d = model.metric.distance_to_many(X[i], X[cores])
                if d.min() < EPS:
                    nearest = cores[d == d.min()].min()
                    assert predicted[i] == model.labels[nearest]
                else:
                    assert predicted[i] == -1

    def test_strict_eps_boundary(self):
        """A query at distance exactly eps of every core is noise (< not <=)."""
        a = np.array([1.0, 0.0])
        X = np.tile(a, (3, 1))
        model = repro.fit_model(X, "dbscan", eps=0.5, tau=2)
        with model:
            # cos distance to the core is 1 - cos(theta); pick theta with
            # 1 - cos(theta) == 0.5 exactly.
            q = np.array([0.5, np.sqrt(3) / 2])
            assert model.predict(q)[0] == -1

    def test_single_query_and_empty_batch(self, blobs):
        model = repro.fit_model(blobs, "dbscan", eps=EPS, tau=TAU)
        with model:
            one = model.predict(blobs[0])
            assert one.shape == (1,)
            assert one[0] == model.labels[0] or not model.core_mask[0]
            assert model.predict(np.empty((0, blobs.shape[1]))).size == 0

    def test_all_noise_fit_predicts_all_noise(self):
        X = normalize_rows(np.random.default_rng(0).normal(size=(20, 32)))
        model = repro.fit_model(X, "dbscan", eps=0.01, tau=5)
        assert model.n_cores == 0
        assert np.all(model.predict(X) == -1)
        assert np.all(np.isinf(model.core_distances))

    def test_core_less_model_still_validates_queries(self):
        X = normalize_rows(np.random.default_rng(0).normal(size=(20, 8)))
        model = repro.fit_model(X, "dbscan", eps=0.01, tau=5)
        assert model.n_cores == 0
        with pytest.raises(DataValidationError):
            model.predict(np.full((2, 8), np.nan))
        with pytest.raises(DataValidationError):
            model.predict(2.0 * X[:3])
        assert model.predict(np.empty((0, 8))).shape == (0,)

    def test_euclidean_model_predicts_nearest_core(self):
        rng = np.random.default_rng(3)
        centers = rng.uniform(-10, 10, size=(3, 6))
        X = np.vstack([c + 0.4 * rng.normal(size=(40, 6)) for c in centers])
        model = repro.fit_model(X, "dbscan", eps=1.5, tau=4, metric="euclidean")
        queries = np.vstack([X[:30] + 0.3 * rng.normal(size=(30, 6)), 20 * X[:5]])
        with model:
            assert model.n_cores > 0
            expected = predict_loop(model, queries)
            assert (expected != -1).any() and (expected == -1).any()
            assert np.array_equal(model.predict(queries), expected)
            assert model.predict(queries[7]).tolist() == [expected[7]]

    @pytest.mark.parametrize(
        "one_worker,sharding",
        [
            (False, {"n_shards": 3}),
            (False, {"n_shards": 4, "query_block": 16}),
            (True, {"n_shards": 3}),
            (True, {"n_shards": 4, "query_block": 16}),
        ],
        ids=[
            "remote-3",
            "remote-4-rounds-16",
            "one-worker-3",
            "one-worker-4-rounds-16",
        ],
    )
    def test_sharded_model_predicts_like_unsharded(
        self, blobs, one_worker, sharding, worker_pool, one_worker_pool
    ):
        from repro import ExecutionConfig, ShardingConfig

        pool = one_worker_pool if one_worker else worker_pool
        config = ShardingConfig(executor=pool.executor_spec(), **sharding)
        sharded = repro.fit_model(
            blobs,
            "dbscan",
            eps=EPS,
            tau=TAU,
            execution=ExecutionConfig(sharding=config),
        )
        plain = repro.fit_model(blobs, "dbscan", eps=EPS, tau=TAU)
        queries = normalize_rows(
            np.random.default_rng(4).normal(size=(40, blobs.shape[1]))
        )
        with sharded, plain:
            assert np.array_equal(sharded.predict(queries), plain.predict(queries))

    def test_fit_model_api_equals_clusterer_fit_model(self, blobs):
        direct = repro.make_clusterer("dbscan", eps=EPS, tau=TAU).fit_model(blobs)
        facade = repro.fit_model(blobs, "dbscan", eps=EPS, tau=TAU)
        with direct, facade:
            assert isinstance(direct, ClusterModel)
            assert np.array_equal(direct.labels, facade.labels)
            assert direct.params == facade.params
