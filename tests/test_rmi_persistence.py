"""Tests for RMI save/load."""

import numpy as np
import pytest

from repro.estimators import RMICardinalityEstimator
from repro.exceptions import NotFittedError

from repro.testing import make_blobs_on_sphere


class TestRMIPersistence:
    @pytest.fixture(scope="class")
    def fitted(self):
        X, _ = make_blobs_on_sphere(40, 2, 12, spread=0.4, seed=0)
        est = RMICardinalityEstimator(
            hidden_layers=(16, 8), epochs=10, n_train_queries=60, seed=0
        ).fit(X)
        return est, X

    def test_round_trip_predictions_identical(self, fitted, tmp_path):
        est, X = fitted
        path = str(tmp_path / "rmi.npz")
        est.save(path)
        loaded = RMICardinalityEstimator.load(path)
        est = est.bind(X)
        loaded = loaded.bind(X)
        assert np.allclose(
            est.estimate_many(X[:15], 0.5), loaded.estimate_many(X[:15], 0.5)
        )

    def test_round_trip_architecture(self, fitted, tmp_path):
        est, X = fitted
        path = str(tmp_path / "rmi.npz")
        est.save(path)
        loaded = RMICardinalityEstimator.load(path)
        assert loaded.stages == est.stages
        assert loaded.hidden_layers == est.hidden_layers

    def test_loaded_transfers_to_other_data(self, fitted, tmp_path):
        # The paper's transfer argument: reuse on similar distributions.
        est, X = fitted
        path = str(tmp_path / "rmi.npz")
        est.save(path)
        loaded = RMICardinalityEstimator.load(path)
        other, _ = make_blobs_on_sphere(30, 2, 12, spread=0.4, seed=9)
        loaded = loaded.bind(other)
        counts = loaded.estimate_many(other[:5], 0.5)
        assert counts.shape == (5,)
        assert np.isfinite(counts).all()

    def test_save_unfitted_raises(self, tmp_path):
        with pytest.raises(NotFittedError):
            RMICardinalityEstimator().save(str(tmp_path / "x.npz"))

