"""Recursive Model Index cardinality estimator (the paper's model).

The paper deploys "an RMI [13] with three stages, respectively including
1, 2, 4 fully-connected neural networks from top to bottom stage"
(Section 3.1), borrowed from CardNet's strong baseline. This module
reimplements it in numpy:

* every stage model is an :class:`~repro.estimators.mlp.MLPRegressor`
  over features ``[query vector ; radius]``;
* targets are ``log1p`` of the neighbor count on the training split
  (log-compression tames the heavy-tailed count distribution);
* Kraska-style routing: a stage model's prediction, normalized by the
  maximum training target, selects which child model refines it;
* stage models that receive too few routed examples inherit their
  parent's weights, so routing gaps degrade gracefully instead of
  failing.

Counts are converted to fractions of the training-split size, which lets
the estimator transfer to the differently-sized clustering (test) split —
and is also why a trained estimator "can be used on any other dataset
with similar distribution", as the paper argues.
"""

from __future__ import annotations

import numpy as np

from repro.estimators.base import CardinalityEstimator
from repro.estimators.mlp import MLPRegressor, _reject_object_arrays
from repro.estimators.training_data import (
    DEFAULT_RADII,
    TrainingSet,
    build_training_set,
    make_features,
)
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.rng import ensure_rng

__all__ = ["RMICardinalityEstimator"]

#: A routed training subset smaller than this clones its parent instead
#: of training from scratch.
_MIN_EXAMPLES_PER_MODEL = 16


class RMICardinalityEstimator(CardinalityEstimator):
    """Three-stage RMI of fully-connected networks (paper Section 3.1).

    Parameters
    ----------
    stages:
        Models per stage, top to bottom. The paper uses ``(1, 2, 4)``.
    hidden_layers:
        Hidden widths of every stage network. The paper uses
        ``(512, 512, 256, 128)``; the default is CPU-friendly.
    epochs, batch_size, learning_rate:
        Training hyperparameters for each stage network (paper: 200
        epochs, batch 512).
    n_train_queries:
        Training queries sampled from the training split (``None`` = all).
    radii:
        Threshold grid for the training set (paper: 0.1-0.9).
    metric:
        "cosine" (default) or "euclidean" (future-work extension; pass a
        matching data-driven ``radii`` grid, since Euclidean thresholds
        are unbounded — exactly the obstacle Section 1 describes).
    seed:
        Seed controlling query sampling and every network.

    Examples
    --------
    >>> from repro.data import load_dataset
    >>> ds = load_dataset("MS-50k", scale=0.005, seed=1)
    >>> train, test = ds.split()
    >>> est = RMICardinalityEstimator(epochs=5, n_train_queries=64, seed=0)
    >>> est = est.fit(train).bind(test)
    >>> counts = est.estimate_many(test[:4], eps=0.5)
    >>> counts.shape
    (4,)
    """

    def __init__(
        self,
        stages: tuple[int, ...] = (1, 2, 4),
        hidden_layers: tuple[int, ...] = (64, 64, 32),
        epochs: int = 60,
        batch_size: int = 128,
        learning_rate: float = 1e-3,
        n_train_queries: int | None = None,
        radii: tuple[float, ...] = DEFAULT_RADII,
        metric: str = "cosine",
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if not stages or stages[0] != 1:
            raise InvalidParameterError(
                f"stages must start with a single root model; got {stages}"
            )
        if any(s <= 0 for s in stages):
            raise InvalidParameterError(f"stage sizes must be positive; got {stages}")
        self.stages = tuple(int(s) for s in stages)
        self.hidden_layers = tuple(hidden_layers)
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.learning_rate = float(learning_rate)
        self.n_train_queries = n_train_queries
        self.radii = tuple(radii)
        self.metric = metric
        self.seed = seed
        self._models: list[list[MLPRegressor]] = []
        self._target_max: float = 1.0
        self._n_reference: int | None = None
        self.training_set_: TrainingSet | None = None

    @classmethod
    def paper_configuration(
        cls, seed: int | np.random.Generator | None = 0, **overrides
    ) -> "RMICardinalityEstimator":
        """The exact architecture/training setup reported in the paper."""
        params = {
            "stages": (1, 2, 4),
            "hidden_layers": (512, 512, 256, 128),
            "epochs": 200,
            "batch_size": 512,
            "seed": seed,
        }
        params.update(overrides)
        return cls(**params)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def _new_model(self, seed: np.random.SeedSequence) -> MLPRegressor:
        return MLPRegressor(
            hidden_layers=self.hidden_layers,
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            epochs=self.epochs,
            seed=seed,
        )

    def fit(self, X_train: np.ndarray) -> "RMICardinalityEstimator":
        rng = ensure_rng(self.seed)
        training = build_training_set(
            X_train,
            n_queries=self.n_train_queries,
            radii=self.radii,
            seed=rng,
            metric=self.metric,
        )
        self.training_set_ = training
        self._n_reference = training.n_reference
        features = training.features
        targets = np.log1p(training.fractions * training.n_reference)
        self._target_max = float(max(targets.max(), 1e-9))

        n_models_total = sum(self.stages)
        # A child seed per network (the streams Generator.spawn would
        # give), so no network keeps a generator past its fit.
        seeds = iter(rng.bit_generator.seed_seq.spawn(n_models_total))
        self._models = []
        # Which model of the current stage each example routes to.
        assignment = np.zeros(features.shape[0], dtype=np.int64)
        for stage_idx, n_models in enumerate(self.stages):
            stage_models: list[MLPRegressor] = []
            predictions = np.empty(features.shape[0])
            for model_idx in range(n_models):
                model = self._new_model(next(seeds))
                mask = assignment == model_idx
                n_routed = int(np.count_nonzero(mask))
                if stage_idx == 0 or n_routed >= _MIN_EXAMPLES_PER_MODEL:
                    model.fit(features[mask], targets[mask])
                else:
                    # Too few routed examples: inherit the parent function.
                    parent = self._parent_model(stage_idx, model_idx)
                    model.clone_from(parent)
                stage_models.append(model)
                if mask.any():
                    predictions[mask] = model.predict(features[mask])
            self._models.append(stage_models)
            if stage_idx + 1 < len(self.stages):
                assignment = self._route(
                    predictions, assignment, n_models, self.stages[stage_idx + 1]
                )
        return self

    def _parent_model(self, stage_idx: int, model_idx: int) -> MLPRegressor:
        """The model one stage up that routes into (stage_idx, model_idx)."""
        n_parents = self.stages[stage_idx - 1]
        n_here = self.stages[stage_idx]
        parent_idx = min(model_idx * n_parents // n_here, n_parents - 1)
        return self._models[stage_idx - 1][parent_idx]

    def _route(
        self,
        predictions: np.ndarray,
        assignment: np.ndarray,
        n_models_here: int,
        n_models_next: int,
    ) -> np.ndarray:
        """Kraska-style routing by normalized predicted cardinality.

        Each model of the current stage owns a contiguous block of child
        models; within the block, the prediction (scaled to [0, 1] by the
        global maximum target) picks the child.
        """
        children_per_model = n_models_next / n_models_here
        normalized = np.clip(predictions / self._target_max, 0.0, 1.0 - 1e-12)
        base = np.floor(assignment * children_per_model).astype(np.int64)
        span = np.floor((assignment + 1) * children_per_model).astype(np.int64) - base
        span = np.maximum(span, 1)
        offset = np.floor(normalized * span).astype(np.int64)
        return np.minimum(base + offset, n_models_next - 1)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def _predict_log_counts(self, features: np.ndarray) -> np.ndarray:
        if not self._models:
            raise NotFittedError("RMICardinalityEstimator.predict called before fit")
        assignment = np.zeros(features.shape[0], dtype=np.int64)
        predictions = np.empty(features.shape[0])
        for stage_idx, stage_models in enumerate(self._models):
            for model_idx, model in enumerate(stage_models):
                mask = assignment == model_idx
                if mask.any():
                    predictions[mask] = model.predict(features[mask])
            if stage_idx + 1 < len(self._models):
                assignment = self._route(
                    predictions,
                    assignment,
                    len(stage_models),
                    len(self._models[stage_idx + 1]),
                )
        return predictions

    def predict_fraction(self, Q: np.ndarray, eps: float) -> np.ndarray:
        if self._n_reference is None:
            raise NotFittedError("RMICardinalityEstimator.predict called before fit")
        features = make_features(Q, eps)
        counts = np.expm1(self._predict_log_counts(features))
        return np.clip(counts, 0.0, None) / self._n_reference

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_models(self) -> int:
        """Total number of stage networks (7 for the paper's 1+2+4)."""
        return sum(self.stages)

    def stage_model(self, stage: int, index: int) -> MLPRegressor:
        """Access one fitted stage network (for tests and inspection)."""
        if not self._models:
            raise NotFittedError("estimator is not fitted")
        return self._models[stage][index]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Serialize the fitted RMI (all stage networks) to one ``.npz``.

        The paper argues trained estimators transfer across datasets with
        similar distributions; persistence is what makes that reuse
        practical (train once on a corpus, load for each clustering job).
        """
        if not self._models:
            raise NotFittedError("cannot save an unfitted RMI")
        arrays: dict[str, np.ndarray] = {
            "stages": np.array(self.stages, dtype=np.int64),
            "target_max": np.array([self._target_max]),
            "n_reference": np.array([self._n_reference], dtype=np.int64),
            "hidden_layers": np.array(self.hidden_layers, dtype=np.int64),
        }
        for s, stage_models in enumerate(self._models):
            for m, model in enumerate(stage_models):
                prefix = f"s{s}m{m}_"
                arrays[prefix + "feature_mean"] = model._feature_mean
                arrays[prefix + "feature_std"] = model._feature_std
                for i, (W, b) in enumerate(zip(model._weights, model._biases)):
                    arrays[prefix + f"W{i}"] = W
                    arrays[prefix + f"b{i}"] = b
        _reject_object_arrays(arrays)
        np.savez(path, **arrays)  # reprolint: disable=RPL002 -- numeric
        # dtypes enforced by _reject_object_arrays, so nothing can pickle

    @classmethod
    def load(cls, path: str) -> "RMICardinalityEstimator":
        """Restore an estimator saved with :meth:`save` (ready to bind)."""
        data = np.load(path, allow_pickle=False)
        stages = tuple(int(s) for s in data["stages"])
        hidden_layers = tuple(int(h) for h in data["hidden_layers"])
        estimator = cls(stages=stages, hidden_layers=hidden_layers)
        estimator._target_max = float(data["target_max"][0])
        estimator._n_reference = int(data["n_reference"][0])
        n_weight_layers = len(hidden_layers) + 1
        estimator._models = []
        for s, n_models in enumerate(stages):
            stage_models = []
            for m in range(n_models):
                prefix = f"s{s}m{m}_"
                model = MLPRegressor(hidden_layers=hidden_layers)
                model._feature_mean = data[prefix + "feature_mean"]
                model._feature_std = data[prefix + "feature_std"]
                model._weights = [
                    data[prefix + f"W{i}"] for i in range(n_weight_layers)
                ]
                model._biases = [data[prefix + f"b{i}"] for i in range(n_weight_layers)]
                stage_models.append(model)
            estimator._models.append(stage_models)
        return estimator
