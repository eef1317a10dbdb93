"""Tests for the benchmark workload preparation module."""

import pytest

from repro.data.datasets import DATASET_SPECS
from repro.experiments.workloads import (
    Workload,
    clear_cache,
    prepare_workload,
    prepare_workloads,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


def tiny(name="MS-50k", **kw):
    defaults = {"scale": 0.003, "seed": 0, "epochs": 3, "n_train_queries": 40}
    defaults.update(kw)
    return prepare_workload(name, **defaults)


class TestPrepareWorkload:
    def test_bundle_fields(self):
        wl = tiny()
        assert isinstance(wl, Workload)
        assert wl.name == "MS-50k"
        assert wl.alpha == DATASET_SPECS["MS-50k"].alpha
        assert wl.X_train.shape[1] == 768
        assert wl.X_test.shape[1] == 768

    def test_estimator_is_fitted_and_usable(self):
        wl = tiny()
        bound = wl.estimator.bind(wl.X_test)
        counts = bound.estimate_many(wl.X_test[:3], 0.5)
        assert counts.shape == (3,)

    def test_memoization_identity(self):
        a = tiny()
        b = tiny()
        assert a is b

    def test_cache_key_includes_settings(self):
        a = tiny(epochs=3)
        b = tiny(epochs=4)
        assert a is not b

    def test_clear_cache(self):
        a = tiny()
        clear_cache()
        b = tiny()
        assert a is not b

    def test_prepare_many(self):
        workloads = prepare_workloads(
            ("MS-50k", "MS-100k"), scale=0.003, seed=0, epochs=3, n_train_queries=40
        )
        assert set(workloads) == {"MS-50k", "MS-100k"}
        assert (
            workloads["MS-100k"].X_train.shape[0]
            > workloads["MS-50k"].X_train.shape[0]
        )

    def test_split_is_paper_ratio(self):
        wl = tiny()
        total = wl.X_train.shape[0] + wl.X_test.shape[0]
        assert wl.X_train.shape[0] == round(0.8 * total)
