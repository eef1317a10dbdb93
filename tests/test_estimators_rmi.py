"""Tests for the RMI cardinality estimator."""

import numpy as np
import pytest

from repro.estimators import RMICardinalityEstimator
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.index import BruteForceIndex

from repro.testing import make_blobs_on_sphere


@pytest.fixture(scope="module")
def fitted():
    """A small RMI fitted on clusterable data (shared; read-only)."""
    X, _ = make_blobs_on_sphere(60, 3, 24, spread=0.4, seed=0)
    est = RMICardinalityEstimator(
        hidden_layers=(64, 32), epochs=120, learning_rate=2e-3, seed=0
    ).fit(X)
    return est, X


class TestConstruction:
    def test_paper_configuration(self):
        est = RMICardinalityEstimator.paper_configuration()
        assert est.stages == (1, 2, 4)
        assert est.hidden_layers == (512, 512, 256, 128)
        assert est.epochs == 200
        assert est.batch_size == 512

    def test_paper_configuration_overrides(self):
        est = RMICardinalityEstimator.paper_configuration(epochs=3)
        assert est.epochs == 3
        assert est.hidden_layers == (512, 512, 256, 128)

    def test_invalid_stages(self):
        with pytest.raises(InvalidParameterError):
            RMICardinalityEstimator(stages=())
        with pytest.raises(InvalidParameterError):
            RMICardinalityEstimator(stages=(2, 4))  # root must be single
        with pytest.raises(InvalidParameterError):
            RMICardinalityEstimator(stages=(1, 0))

    def test_n_models(self):
        assert RMICardinalityEstimator(stages=(1, 2, 4)).n_models == 7

    def test_predict_before_fit(self):
        est = RMICardinalityEstimator()
        with pytest.raises(NotFittedError):
            est.predict_fraction(np.ones((1, 4)), 0.5)
        with pytest.raises(NotFittedError):
            est.stage_model(0, 0)


class TestFitAndPredict:
    def test_estimates_correlate_with_truth(self, fitted):
        # Evaluate at a radius where true counts actually vary across
        # queries (at small radii every blob point sees its whole blob,
        # making per-query correlation meaningless).
        est, X = fitted
        index = BruteForceIndex().build(X)
        est = est.bind(X)
        eps = 0.6
        predicted = est.estimate_many(X, eps)
        actual = index.batch_range_count(X, eps).astype(float)
        assert actual.std() > 5  # the radius is discriminative
        corr = np.corrcoef(predicted, actual)[0, 1]
        assert corr > 0.5, f"prediction correlation too weak: {corr:.3f}"

    def test_mean_estimates_track_truth_across_radii(self, fitted):
        est, X = fitted
        index = BruteForceIndex().build(X)
        est = est.bind(X)
        for eps in (0.3, 0.5, 0.7):
            predicted = est.estimate_many(X, eps).mean()
            actual = index.batch_range_count(X, eps).mean()
            assert predicted == pytest.approx(actual, rel=0.4), eps

    def test_fractions_clipped_to_unit_interval(self, fitted):
        est, X = fitted
        fracs = est.predict_fraction(X[:20], 0.5)
        assert (fracs >= 0).all()

    def test_counts_scale_with_bound_size(self, fitted):
        est, X = fitted
        est = est.bind(X)
        full = est.estimate_many(X[:5], 0.5)
        est = est.bind(X[:90])
        half = est.estimate_many(X[:5], 0.5)
        assert np.allclose(half, full * 90 / X.shape[0], rtol=1e-9)

    def test_estimate_scalar_form(self, fitted):
        est, X = fitted
        est = est.bind(X)
        single = est.estimate(X[0], 0.5)
        many = est.estimate_many(X[:1], 0.5)[0]
        assert single == pytest.approx(many)

    def test_stage_models_all_fitted(self, fitted):
        est, _ = fitted
        for stage, n in enumerate(est.stages):
            for i in range(n):
                assert est.stage_model(stage, i).is_fitted

    def test_deterministic_given_seed(self):
        X, _ = make_blobs_on_sphere(40, 2, 16, spread=0.3, seed=1)
        def build():
            return (
                RMICardinalityEstimator(
                    hidden_layers=(8,), epochs=5, n_train_queries=30, seed=9
                )
                .fit(X)
                .bind(X)
                .estimate_many(X[:6], 0.5)
            )
        assert np.allclose(build(), build())

    def test_larger_radius_larger_estimates_on_average(self, fitted):
        est, X = fitted
        est = est.bind(X)
        small = est.estimate_many(X, 0.2).mean()
        large = est.estimate_many(X, 0.8).mean()
        assert large > small

    def test_training_set_exposed(self, fitted):
        est, X = fitted
        assert est.training_set_ is not None
        assert est.training_set_.n_reference == X.shape[0]

    def test_unbound_estimate_raises(self):
        X, _ = make_blobs_on_sphere(30, 2, 8, seed=2)
        est = RMICardinalityEstimator(hidden_layers=(8,), epochs=2, seed=0).fit(X)
        with pytest.raises(NotFittedError):
            est.estimate_many(X[:2], 0.5)


class TestRouting:
    def test_routing_partitions_all_examples(self):
        X, _ = make_blobs_on_sphere(40, 2, 12, spread=0.5, seed=3)
        est = RMICardinalityEstimator(
            stages=(1, 2, 4), hidden_layers=(8,), epochs=3, seed=0
        ).fit(X)
        # Internal routing: every leaf index must be within range.
        from repro.estimators.training_data import make_features

        feats = make_features(X, 0.5)
        preds = est._predict_log_counts(feats)
        assert np.isfinite(preds).all()

    def test_two_stage_variant(self):
        X, _ = make_blobs_on_sphere(30, 2, 8, spread=0.4, seed=4)
        est = RMICardinalityEstimator(
            stages=(1, 3), hidden_layers=(8,), epochs=3, seed=0
        ).fit(X)
        est = est.bind(X)
        assert est.estimate_many(X[:4], 0.5).shape == (4,)

    def test_single_stage_variant(self):
        X, _ = make_blobs_on_sphere(30, 2, 8, spread=0.4, seed=5)
        est = RMICardinalityEstimator(
            stages=(1,), hidden_layers=(8,), epochs=3, seed=0
        ).fit(X)
        est = est.bind(X)
        assert est.estimate_many(X[:4], 0.5).shape == (4,)
