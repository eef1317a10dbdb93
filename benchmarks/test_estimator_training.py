"""Benchmark: RMI training with one fused Adam step vs per-array updates.

``MLPRegressor.fit`` keeps every weight and bias as a view of one flat
buffer and updates all of them with one in-place Adam step per
minibatch. The reference below is the loop it replaced: one Adam update
per parameter array, each allocating its own temporaries. Both train
the same RMI (the perfbench set-up: stages 1/2/4, hidden 64/64/32, 20
epochs, 500 training queries) on the same MS-50k training split, and
must end with bit-identical stage networks before anything counts.

The tracked metric is ``rmi_fit_speedup``: the best reference fit over
the best fused fit, alternating the two, recorded to
``benchmarks/out/estimator_training_n{N}.json`` for the CI regression
gate. Both fits build the same index-free training set, so the ratio
isolates the optimizer.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import out_path

from repro.data import load_dataset
from repro.estimators import MLPRegressor, RMICardinalityEstimator
from repro.experiments.reporting import save_json
from repro.rng import ensure_rng

SCALE = 0.25
EPOCHS = 20
TRAIN_QUERIES = 500
REPEATS = 3


class _AdamState:
    """First/second moment buffers for one parameter tensor."""

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
    """``MLPRegressor.fit`` with one Adam update per parameter array."""
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


def _timed_fit(X_train: np.ndarray) -> tuple[RMICardinalityEstimator, float]:
    start = time.perf_counter()
    estimator = RMICardinalityEstimator(
        hidden_layers=(64, 64, 32),
        epochs=EPOCHS,
        n_train_queries=TRAIN_QUERIES,
        seed=0,
    ).fit(X_train)
    return estimator, time.perf_counter() - start


def _assert_same_stages(a: RMICardinalityEstimator, b: RMICardinalityEstimator):
    for stage, n_models in enumerate(a.stages):
        for index in range(n_models):
            net_a, net_b = a.stage_model(stage, index), b.stage_model(stage, index)
            params_a = net_a._weights + net_a._biases
            params_b = net_b._weights + net_b._biases
            for p, q in zip(params_a, params_b):
                assert np.array_equal(p, q), (stage, index)


def test_rmi_fit_speedup():
    X_train, _ = load_dataset("MS-50k", scale=SCALE, seed=0).split(seed=0)
    fused_s, reference_s = [], []
    for _ in range(REPEATS):
        fused, seconds = _timed_fit(X_train)
        fused_s.append(seconds)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(MLPRegressor, "fit", reference_fit)
            reference, seconds = _timed_fit(X_train)
        reference_s.append(seconds)
        _assert_same_stages(fused, reference)
    speedup = min(reference_s) / min(fused_s)
    n, dim = X_train.shape
    rows = [
        {
            "dataset": "MS-50k",
            "n": int(n),
            "dim": int(dim),
            "epochs": EPOCHS,
            "train_queries": TRAIN_QUERIES,
            "examples": fused.training_set_.n_examples,
            "reference_fit_s": min(reference_s),
            "fused_fit_s": min(fused_s),
            "rmi_fit_speedup": speedup,
        }
    ]
    print()
    print(
        f"RMI fit on MS-50k n={n} d={dim}: per-array Adam {min(reference_s):.3f}s "
        f"-> fused {min(fused_s):.3f}s ({speedup:.2f}x)"
    )
    save_json(out_path(f"estimator_training_n{n}.json"), {"rows": rows})
