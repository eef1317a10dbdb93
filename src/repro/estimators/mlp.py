"""Fully-connected regression network in pure numpy.

Implements the building block of the paper's RMI estimator: an MLP with
ReLU hidden layers and a linear output, trained with minibatch Adam on
mean-squared error. The paper's stage networks use four hidden layers of
widths 512/512/256/128; that architecture is available via
:func:`paper_hidden_layers`, while the default is smaller for CPU
wall-clock reasons (the benchmarks document which one they use).

Features are standardized internally (mean/variance of the training set)
so callers never worry about scaling; weights initialize with He fan-in
scaling from a seeded generator, making training fully deterministic.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.exceptions import InvalidParameterError, NotFittedError, PersistenceError
from repro.rng import Seed, ensure_rng

__all__ = ["MLPRegressor", "TrainingHistory", "paper_hidden_layers"]


def _reject_object_arrays(arrays: dict[str, np.ndarray]) -> None:
    """Refuse to serialize object-dtype arrays.

    ``np.savez`` has no ``allow_pickle`` switch — an object array would
    silently go through pickle. Estimator artifacts are numeric only.
    """
    for key, arr in arrays.items():
        if np.asarray(arr).dtype.hasobject:
            raise PersistenceError(
                f"refusing to save object-dtype array {key!r}: estimator "
                "artifacts must be numeric (pickle-free)"
            )


def paper_hidden_layers() -> tuple[int, ...]:
    """The stage-network architecture used in the paper (Section 3.1)."""
    return (512, 512, 256, 128)


@dataclasses.dataclass
class TrainingHistory:
    """Per-epoch mean training loss, recorded by :meth:`MLPRegressor.fit`."""

    losses: list[float] = dataclasses.field(default_factory=list)

    @property
    def n_epochs(self) -> int:
        return len(self.losses)

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise NotFittedError("no training epochs recorded")
        return self.losses[-1]


def _adam_step(
    params: np.ndarray, grads: np.ndarray, state: np.ndarray, lr: float, t: int
) -> None:
    """One in-place Adam step over a flat parameter buffer.

    ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g``, ``p -= (lr*(m/c1))
    / (sqrt(v/c2) + 1e-8)``: elementwise, in this order, so each layer rounds
    as if updated alone. ``state`` rows: ``m``, ``v`` (zero at first), scratch.
    """
    beta1, beta2 = 0.9, 0.999
    m, v, step, denom = state
    m *= beta1
    m += np.multiply(grads, 1.0 - beta1, out=step)
    v *= beta2
    np.multiply(grads, 1.0 - beta2, out=step)
    v += np.multiply(step, grads, out=step)
    np.sqrt(np.divide(v, 1.0 - beta2**t, out=denom), out=denom)
    denom += 1e-8
    np.divide(m, 1.0 - beta1**t, out=step)
    step *= lr
    params -= np.divide(step, denom, out=step)


class MLPRegressor:
    """Minimal feed-forward regressor: ReLU hidden layers, linear output.

    :meth:`fit` keeps weights and biases (and their gradients) as views
    of one flat buffer, so one in-place Adam step updates every layer.

    Parameters
    ----------
    hidden_layers:
        Widths of the hidden layers.
    learning_rate, batch_size, epochs:
        Adam/minibatch hyperparameters.
    seed:
        Seed for initialization and shuffling.
    l2:
        Optional weight decay coefficient.
    """

    def __init__(
        self,
        hidden_layers: tuple[int, ...] = (64, 64, 32),
        learning_rate: float = 1e-3,
        batch_size: int = 128,
        epochs: int = 60,
        seed: Seed = 0,
        l2: float = 0.0,
    ) -> None:
        if any(h <= 0 for h in hidden_layers):
            raise InvalidParameterError(f"hidden widths must be positive; got {hidden_layers}")
        if learning_rate <= 0:
            raise InvalidParameterError(f"learning_rate must be positive; got {learning_rate}")
        if batch_size <= 0 or epochs <= 0:
            raise InvalidParameterError("batch_size and epochs must be positive")
        if l2 < 0:
            raise InvalidParameterError(f"l2 must be non-negative; got {l2}")
        self.hidden_layers = tuple(int(h) for h in hidden_layers)
        self.learning_rate = float(learning_rate)
        self.batch_size = int(batch_size)
        self.epochs = int(epochs)
        self.l2 = float(l2)
        self.seed = seed
        self._weights: list[np.ndarray] = []
        self._biases: list[np.ndarray] = []
        self._feature_mean: np.ndarray | None = None
        self._feature_std: np.ndarray | None = None
        self._fold_cache: tuple[np.ndarray, np.ndarray] | None = None
        self.history = TrainingHistory()

    # ------------------------------------------------------------------
    # Initialization and state
    # ------------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return bool(self._weights)

    def _param_views(
        self, in_dim: int
    ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """``(flat, weights, biases)``: a zeroed flat buffer laid out
        ``W_0, b_0, W_1, b_1, ...`` and its per-layer views."""
        sizes = [in_dim, *self.hidden_layers, 1]
        shapes = [s for a, b in zip(sizes[:-1], sizes[1:]) for s in ((a, b), (b,))]
        ends = np.cumsum([np.prod(s) for s in shapes])
        flat = np.zeros(ends[-1])
        views = [p.reshape(s) for p, s in zip(np.split(flat, ends[:-1]), shapes)]
        return flat, views[::2], views[1::2]

    def _init_params(self, in_dim: int, rng: np.random.Generator) -> np.ndarray:
        """He-initialize every layer into views of one flat buffer; return it."""
        flat, self._weights, self._biases = self._param_views(in_dim)
        for W in self._weights:
            W[...] = rng.normal(scale=np.sqrt(2.0 / W.shape[0]), size=W.shape)
        return flat

    def clone_from(self, other: "MLPRegressor") -> "MLPRegressor":
        """Copy fitted parameters from another network (same architecture).

        Used by the RMI when a stage model receives too few routed
        examples to train on its own: it inherits its parent's function.
        """
        if not other.is_fitted:
            raise NotFittedError("cannot clone from an unfitted network")
        self._weights = [w.copy() for w in other._weights]
        self._biases = [b.copy() for b in other._biases]
        self._feature_mean = (
            None if other._feature_mean is None else other._feature_mean.copy()
        )
        self._feature_std = (
            None if other._feature_std is None else other._feature_std.copy()
        )
        self._fold_cache = None
        return self

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        return (X - self._feature_mean) / self._feature_std

    def _forward(self, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Return (output, activations) where activations[i] feeds layer i."""
        activations = [X]
        h = X
        last = len(self._weights) - 1
        for i, (W, b) in enumerate(zip(self._weights, self._biases)):
            z = h @ W + b
            h = z if i == last else np.maximum(z, 0.0)
            activations.append(h)
        return h[:, 0], activations

    def _folded_first_layer(self) -> tuple[np.ndarray, np.ndarray]:
        """First-layer weights with input standardization folded in.

        Standardization is affine, so ``relu((X - m)/s @ W + b)`` equals
        ``relu(X @ (W/s) + (b - (m/s) @ W))``; folding removes the full
        (n, dim) standardization pass from the prediction hot path.
        """
        if self._fold_cache is None:
            W0 = self._weights[0] / self._feature_std[:, None]
            b0 = (
                self._biases[0]
                - (self._feature_mean / self._feature_std) @ self._weights[0]
            )
            self._fold_cache = (W0, b0)
        return self._fold_cache

    def _forward_inference(self, X: np.ndarray) -> np.ndarray:
        """Prediction-only forward pass on raw (unstandardized) features."""
        W0, b0 = self._folded_first_layer()
        last = len(self._weights) - 1
        z = X @ W0 + b0
        h = z if last == 0 else np.maximum(z, 0.0)
        for i in range(1, len(self._weights)):
            z = h @ self._weights[i] + self._biases[i]
            h = z if i == last else np.maximum(z, 0.0)
        return h[:, 0]

    def _backward(
        self,
        activations: list[np.ndarray],
        residual: np.ndarray,
        out: tuple[list[np.ndarray], list[np.ndarray]] | None = None,
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Gradients of mean-squared error w.r.t. weights and biases, written
        into ``out``: per-layer views of one flat buffer (new when None)."""
        grad_w, grad_b = out or self._param_views(activations[0].shape[1])[1:]
        n = residual.shape[0]
        # dL/dz for the output layer; L = mean(residual^2), residual = pred - y.
        delta = (2.0 / n) * residual[:, None]
        for i in range(len(self._weights) - 1, -1, -1):
            np.matmul(activations[i].T, delta, out=grad_w[i])
            if self.l2:
                grad_w[i] += self.l2 * self._weights[i]
            np.add.reduce(delta, axis=0, out=grad_b[i])
            if i > 0:
                delta = (delta @ self._weights[i].T) * (activations[i] > 0.0)
        return grad_w, grad_b

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MLPRegressor":
        """Train on (features, targets) with minibatch Adam."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise InvalidParameterError(
                f"X must be (n, d) aligned with y; got {X.shape} vs {y.shape}"
            )
        self._feature_mean = X.mean(axis=0)
        std = X.std(axis=0)
        std[std < 1e-12] = 1.0
        self._feature_std = std
        Xs = self._standardize(X)
        rng = ensure_rng(self.seed)
        params = self._init_params(X.shape[1], rng)
        grads, grad_w, grad_b = self._param_views(X.shape[1])
        adam_state = np.zeros((4, params.size))
        step = 0
        self.history = TrainingHistory()
        n = Xs.shape[0]
        for _ in range(self.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, self.batch_size):
                batch = order[start : start + self.batch_size]
                pred, activations = self._forward(Xs[batch])
                residual = pred - y[batch]
                epoch_loss += float((residual**2).sum())
                self._backward(activations, residual, (grad_w, grad_b))
                step += 1
                _adam_step(params, grads, adam_state, self.learning_rate, step)
            self.history.losses.append(epoch_loss / n)
        self._fold_cache = None
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted targets for a feature batch."""
        if not self.is_fitted:
            raise NotFittedError("MLPRegressor.predict called before fit")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return self._forward_inference(X)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Serialize fitted parameters to an ``.npz`` file."""
        if not self.is_fitted:
            raise NotFittedError("cannot save an unfitted MLPRegressor")
        arrays: dict[str, np.ndarray] = {
            "feature_mean": self._feature_mean,
            "feature_std": self._feature_std,
            "hidden_layers": np.array(self.hidden_layers, dtype=np.int64),
        }
        for i, (W, b) in enumerate(zip(self._weights, self._biases)):
            arrays[f"W{i}"] = W
            arrays[f"b{i}"] = b
        _reject_object_arrays(arrays)
        np.savez(path, **arrays)  # reprolint: disable=RPL002 -- numeric
        # dtypes enforced by _reject_object_arrays, so nothing can pickle

    @classmethod
    def load(cls, path: str) -> "MLPRegressor":
        """Restore a network saved with :meth:`save`."""
        data = np.load(path, allow_pickle=False)
        model = cls(hidden_layers=tuple(int(h) for h in data["hidden_layers"]))
        model._feature_mean = data["feature_mean"]
        model._feature_std = data["feature_std"]
        n_layers = len(model.hidden_layers) + 1
        model._weights = [data[f"W{i}"] for i in range(n_layers)]
        model._biases = [data[f"b{i}"] for i in range(n_layers)]
        model._fold_cache = None
        return model
