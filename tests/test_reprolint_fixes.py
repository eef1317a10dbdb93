"""Regression tests for the violations reprolint surfaced on first run.

Each test pins one fix: frozen public registries (RPL003), pickle-free
estimator persistence (RPL002), and the loud BLAS-pinning fallback that
replaced two silently-swallowed exception handlers (RPL007).
"""

from __future__ import annotations

import sys
import types

import numpy as np
import pytest

from repro.api import CLUSTERERS
from repro.data.datasets import DATASET_SPECS
from repro.estimators.mlp import MLPRegressor, _reject_object_arrays
from repro.exceptions import PersistenceError
from repro.remote import worker as _worker


class TestFrozenRegistries:
    def test_clusterer_registry_is_read_only(self):
        with pytest.raises(TypeError):
            CLUSTERERS["rogue"] = object  # type: ignore[index]

    def test_dataset_registry_is_read_only(self):
        with pytest.raises(TypeError):
            DATASET_SPECS["rogue"] = None  # type: ignore[index]

    def test_registries_still_resolve(self):
        assert "dbscan" in CLUSTERERS
        assert "MS-50k" in DATASET_SPECS


class TestPickleFreePersistence:
    def test_object_arrays_rejected_before_savez(self):
        arrays = {"w": np.array([{"nested": "dict"}], dtype=object)}
        with pytest.raises(PersistenceError, match="object-dtype"):
            _reject_object_arrays(arrays)

    def test_numeric_arrays_accepted(self):
        _reject_object_arrays({"w": np.zeros((2, 2)), "b": np.arange(3)})

    def test_mlp_roundtrip_survives_allow_pickle_false(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(64, 5))
        y = X.sum(axis=1)
        model = MLPRegressor(hidden_layers=(8,), epochs=2, seed=0).fit(X, y)
        path = tmp_path / "mlp.npz"
        model.save(str(path))
        restored = MLPRegressor.load(str(path))
        np.testing.assert_allclose(restored.predict(X), model.predict(X))

    def test_load_rejects_pickled_payload(self, tmp_path):
        """A tampered artifact with a pickled array must not deserialize."""
        path = tmp_path / "evil.npz"
        np.savez(
            path,
            hidden_layers=np.array([8], dtype=np.int64),
            feature_mean=np.array([{"payload": "pickled"}], dtype=object),
            feature_std=np.ones(5),
            W0=np.zeros((5, 8)),
            b0=np.zeros(8),
            W1=np.zeros((8, 1)),
            b1=np.zeros(1),
        )
        with pytest.raises(ValueError, match="pickle"):
            MLPRegressor.load(str(path))


class TestBlasPinningFallback:
    def test_missing_threadpoolctl_returns_none(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        assert _worker._pin_blas_single_thread() is None

    def test_broken_threadpoolctl_warns_instead_of_swallowing(self, monkeypatch):
        fake = types.ModuleType("threadpoolctl")

        def _boom(limits):
            raise RuntimeError("no BLAS found")

        fake.threadpool_limits = _boom
        monkeypatch.setitem(sys.modules, "threadpoolctl", fake)
        with pytest.warns(RuntimeWarning, match="could not pin BLAS"):
            assert _worker._pin_blas_single_thread() is None

    def test_working_threadpoolctl_returns_limiter(self, monkeypatch):
        fake = types.ModuleType("threadpoolctl")
        sentinel = object()
        fake.threadpool_limits = lambda limits: sentinel
        monkeypatch.setitem(sys.modules, "threadpoolctl", fake)
        assert _worker._pin_blas_single_thread() is sentinel
