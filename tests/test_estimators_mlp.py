"""Tests for the numpy MLP regressor."""

import numpy as np
import pytest

from repro.estimators import MLPRegressor, RMICardinalityEstimator
from repro.estimators.mlp import paper_hidden_layers
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.rng import ensure_rng
from repro.testing import make_blobs_on_sphere


def make_regression(n=400, d=4, seed=0, noise=0.05):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, d))
    y = X[:, 0] * 2.0 - X[:, 1] + 0.5 * X[:, 2] ** 2
    return X, y + noise * rng.normal(size=n)


class _AdamState:
    """First/second moment buffers for one parameter tensor (the oracle)."""

    def __init__(self, shape):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)

    def update(self, param, grad, lr, t, beta1, beta2, eps):
        self.m = beta1 * self.m + (1.0 - beta1) * grad
        self.v = beta2 * self.v + (1.0 - beta2) * grad * grad
        m_hat = self.m / (1.0 - beta1**t)
        v_hat = self.v / (1.0 - beta2**t)
        param -= lr * m_hat / (np.sqrt(v_hat) + eps)


def reference_fit(model, X, y):
    """Train ``model`` with one Adam update per parameter array.

    The per-array loop ``MLPRegressor.fit`` replaced with one fused step
    over a flat buffer: same initialization draws, shuffles, backward
    pass and update order, on separately allocated arrays.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    model._feature_mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std < 1e-12] = 1.0
    model._feature_std = std
    Xs = model._standardize(X)
    sizes = [X.shape[1], *model.hidden_layers, 1]
    rng = ensure_rng(model.seed)
    model._weights = [
        rng.normal(scale=np.sqrt(2.0 / a), size=(a, b))
        for a, b in zip(sizes[:-1], sizes[1:])
    ]
    model._biases = [np.zeros(b) for b in sizes[1:]]
    states = [_AdamState(p.shape) for p in model._weights + model._biases]
    model.history.losses.clear()
    step = 0
    n = Xs.shape[0]
    for _ in range(model.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, model.batch_size):
            batch = order[start : start + model.batch_size]
            pred, activations = model._forward(Xs[batch])
            residual = pred - y[batch]
            epoch_loss += float((residual**2).sum())
            grad_w, grad_b = [], []
            delta = (2.0 / residual.shape[0]) * residual[:, None]
            for i in range(len(model._weights) - 1, -1, -1):
                g = activations[i].T @ delta
                if model.l2:
                    g = g + model.l2 * model._weights[i]
                grad_w.insert(0, g)
                grad_b.insert(0, delta.sum(axis=0))
                if i > 0:
                    delta = (delta @ model._weights[i].T) * (activations[i] > 0.0)
            step += 1
            params = model._weights + model._biases
            for p, g, state in zip(params, grad_w + grad_b, states):
                state.update(p, g, model.learning_rate, step, 0.9, 0.999, 1e-8)
        model.history.losses.append(epoch_loss / n)
    model._fold_cache = None
    return model


def assert_same_network(a, b):
    assert len(a._weights) == len(b._weights)
    for Wa, Wb in zip(a._weights, b._weights):
        assert np.array_equal(Wa, Wb)
    for ba, bb in zip(a._biases, b._biases):
        assert np.array_equal(ba, bb)
    assert np.array_equal(a._feature_mean, b._feature_mean)
    assert np.array_equal(a._feature_std, b._feature_std)


class TestConstruction:
    def test_invalid_params(self):
        with pytest.raises(InvalidParameterError):
            MLPRegressor(hidden_layers=(0,))
        with pytest.raises(InvalidParameterError):
            MLPRegressor(learning_rate=0.0)
        with pytest.raises(InvalidParameterError):
            MLPRegressor(batch_size=0)
        with pytest.raises(InvalidParameterError):
            MLPRegressor(epochs=0)
        with pytest.raises(InvalidParameterError):
            MLPRegressor(l2=-0.1)

    def test_paper_architecture_constant(self):
        assert paper_hidden_layers() == (512, 512, 256, 128)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            MLPRegressor().predict(np.ones((2, 3)))


class TestFit:
    def test_learns_linear_function(self):
        X, y = make_regression(noise=0.0)
        model = MLPRegressor(hidden_layers=(32, 16), epochs=150, seed=0).fit(X, y)
        pred = model.predict(X)
        rmse = float(np.sqrt(np.mean((pred - y) ** 2)))
        assert rmse < 0.15

    def test_loss_decreases(self):
        X, y = make_regression()
        model = MLPRegressor(hidden_layers=(16,), epochs=40, seed=1).fit(X, y)
        losses = model.history.losses
        assert losses[-1] < losses[0]
        assert model.history.n_epochs == 40

    def test_deterministic_given_seed(self):
        X, y = make_regression()
        p1 = (
            MLPRegressor(hidden_layers=(8,), epochs=10, seed=5).fit(X, y).predict(X[:5])
        )
        p2 = (
            MLPRegressor(hidden_layers=(8,), epochs=10, seed=5).fit(X, y).predict(X[:5])
        )
        assert np.allclose(p1, p2)

    def test_different_seeds_differ(self):
        X, y = make_regression()
        p1 = MLPRegressor(hidden_layers=(8,), epochs=5, seed=1).fit(X, y).predict(X[:5])
        p2 = MLPRegressor(hidden_layers=(8,), epochs=5, seed=2).fit(X, y).predict(X[:5])
        assert not np.allclose(p1, p2)

    def test_shape_mismatch_raises(self):
        with pytest.raises(InvalidParameterError):
            MLPRegressor().fit(np.ones((5, 2)), np.ones(4))

    def test_1d_x_raises(self):
        with pytest.raises(InvalidParameterError):
            MLPRegressor().fit(np.ones(5), np.ones(5))

    def test_constant_feature_no_nan(self):
        X, y = make_regression()
        X[:, 0] = 3.0  # zero-variance feature must not divide by zero
        model = MLPRegressor(hidden_layers=(8,), epochs=5, seed=0).fit(X, y)
        assert np.isfinite(model.predict(X)).all()

    def test_l2_regularization_shrinks_overfit(self):
        X, y = make_regression(n=50, noise=0.5, seed=3)
        free = MLPRegressor(hidden_layers=(64, 64), epochs=200, seed=0).fit(X, y)
        reg = MLPRegressor(hidden_layers=(64, 64), epochs=200, seed=0, l2=0.1).fit(X, y)
        # Regularized training loss should stay above the unregularized one.
        assert reg.history.final_loss >= free.history.final_loss


class TestPredict:
    def test_single_row(self):
        X, y = make_regression()
        model = MLPRegressor(hidden_layers=(8,), epochs=5, seed=0).fit(X, y)
        out = model.predict(X[0])
        assert out.shape == (1,)

    def test_batch_matches_loop(self):
        X, y = make_regression()
        model = MLPRegressor(hidden_layers=(8,), epochs=5, seed=0).fit(X, y)
        batch = model.predict(X[:10])
        loop = np.array([model.predict(x)[0] for x in X[:10]])
        assert np.allclose(batch, loop)


class TestCloneAndPersistence:
    def test_clone_from_copies_function(self):
        X, y = make_regression()
        parent = MLPRegressor(hidden_layers=(8,), epochs=10, seed=0).fit(X, y)
        child = MLPRegressor(hidden_layers=(8,), seed=1).clone_from(parent)
        assert np.allclose(parent.predict(X[:7]), child.predict(X[:7]))

    def test_clone_is_deep(self):
        X, y = make_regression()
        parent = MLPRegressor(hidden_layers=(8,), epochs=5, seed=0).fit(X, y)
        child = MLPRegressor(hidden_layers=(8,), seed=1).clone_from(parent)
        child._weights[0][:] = 0.0
        assert not np.allclose(parent.predict(X[:3]), child.predict(X[:3]))

    def test_clone_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            MLPRegressor().clone_from(MLPRegressor())

    def test_save_load_round_trip(self, tmp_path):
        X, y = make_regression()
        model = MLPRegressor(hidden_layers=(8, 4), epochs=10, seed=0).fit(X, y)
        path = str(tmp_path / "model.npz")
        model.save(path)
        loaded = MLPRegressor.load(path)
        assert np.allclose(model.predict(X[:9]), loaded.predict(X[:9]))

    def test_save_unfitted_raises(self, tmp_path):
        with pytest.raises(NotFittedError):
            MLPRegressor().save(str(tmp_path / "x.npz"))


class TestFusedAdamMatchesPerArrayOracle:
    """The flat-buffer Adam step trains bit for bit like per-array updates."""

    @pytest.mark.parametrize("l2", [0.0, 0.3])
    @pytest.mark.parametrize("hidden", [(16,), (16, 12, 8)])
    @pytest.mark.parametrize("batch_size", [32, 47])
    def test_weights_and_losses_equal(self, l2, hidden, batch_size):
        X, y = make_regression(n=200, d=5, seed=4)
        params = dict(
            hidden_layers=hidden, epochs=7, batch_size=batch_size, seed=9, l2=l2
        )
        fused = MLPRegressor(**params).fit(X, y)
        oracle = reference_fit(MLPRegressor(**params), X, y)
        assert_same_network(fused, oracle)
        assert fused.history.losses == oracle.history.losses
        assert np.array_equal(fused.predict(X), oracle.predict(X))

    def test_rmi_stages_equal(self, monkeypatch):
        X, _ = make_blobs_on_sphere(40, 3, 16, spread=0.4, seed=2)
        params = dict(hidden_layers=(24, 12), epochs=6, n_train_queries=60, seed=3)
        fused = RMICardinalityEstimator(**params).fit(X)
        monkeypatch.setattr(MLPRegressor, "fit", reference_fit)
        oracle = RMICardinalityEstimator(**params).fit(X)
        for stage, n_models in enumerate(fused.stages):
            for index in range(n_models):
                assert_same_network(
                    fused.stage_model(stage, index), oracle.stage_model(stage, index)
                )
        Q = X[::7]
        fused = fused.bind(X)
        oracle = oracle.bind(X)
        assert np.array_equal(fused.estimate_many(Q, 0.5), oracle.estimate_many(Q, 0.5))
