"""Numerical gradient check for the MLP backpropagation.

Backprop bugs are silent (training still "works", just worse), so this
verifies the analytical gradients against central finite differences on
every layer, plus the correctness of the folded inference path.
"""

import numpy as np
import pytest

from repro.estimators import MLPRegressor


def _loss(model: MLPRegressor, X: np.ndarray, y: np.ndarray) -> float:
    pred, _ = model._forward(X)
    return float(np.mean((pred - y) ** 2))


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(12, 5))
    y = rng.normal(size=12)
    model = MLPRegressor(hidden_layers=(7, 4), seed=1)
    model._feature_mean = np.zeros(5)
    model._feature_std = np.ones(5)
    model._init_params(5, np.random.default_rng(1))
    return model, X, y


class TestBackpropGradients:
    def test_weight_gradients_match_finite_differences(self, setup):
        model, X, y = setup
        pred, activations = model._forward(X)
        grad_w, grad_b = model._backward(activations, pred - y)
        h = 1e-6
        for layer in range(len(model._weights)):
            W = model._weights[layer]
            for index in [(0, 0), (W.shape[0] // 2, W.shape[1] // 2), (-1, -1)]:
                original = W[index]
                W[index] = original + h
                up = _loss(model, X, y)
                W[index] = original - h
                down = _loss(model, X, y)
                W[index] = original
                numeric = (up - down) / (2 * h)
                assert grad_w[layer][index] == pytest.approx(
                    numeric, rel=1e-4, abs=1e-7
                ), f"weight gradient mismatch at layer {layer}, index {index}"

    def test_bias_gradients_match_finite_differences(self, setup):
        model, X, y = setup
        pred, activations = model._forward(X)
        _, grad_b = model._backward(activations, pred - y)
        h = 1e-6
        for layer in range(len(model._biases)):
            b = model._biases[layer]
            for index in [0, b.shape[0] - 1]:
                original = b[index]
                b[index] = original + h
                up = _loss(model, X, y)
                b[index] = original - h
                down = _loss(model, X, y)
                b[index] = original
                numeric = (up - down) / (2 * h)
                assert grad_b[layer][index] == pytest.approx(
                    numeric, rel=1e-4, abs=1e-7
                ), f"bias gradient mismatch at layer {layer}, index {index}"

    def test_l2_gradient_contribution(self, setup):
        model, X, y = setup
        model.l2 = 0.3
        pred, activations = model._forward(X)
        grad_w_reg, _ = model._backward(activations, pred - y)
        model.l2 = 0.0
        grad_w_free, _ = model._backward(activations, pred - y)
        for layer in range(len(model._weights)):
            expected = grad_w_free[layer] + 0.3 * model._weights[layer]
            assert np.allclose(grad_w_reg[layer], expected)
        model.l2 = 0.0


class TestFoldedInference:
    def test_folded_equals_standardized_forward(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-2, 5, size=(40, 6))
        y = X[:, 0] - 2 * X[:, 3]
        model = MLPRegressor(hidden_layers=(8, 5), epochs=15, seed=0).fit(X, y)
        reference, _ = model._forward(model._standardize(X))
        folded = model._forward_inference(X)
        assert np.allclose(folded, reference, atol=1e-10)

    def test_fold_cache_invalidated_on_refit(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        model = MLPRegressor(hidden_layers=(6,), epochs=3, seed=0).fit(X, y)
        first = model.predict(X[:5]).copy()
        model.fit(X, -y)  # refit on different targets
        second = model.predict(X[:5])
        assert not np.allclose(first, second)
