"""Training-set construction for learned cardinality estimators.

Follows the paper's recipe: queries are data points from the training
split, thresholds sweep the bounded cosine range (0.1-0.9, "enough to
cover most cases" precisely because angular distance is bounded — the
paper's argument for why angular metrics suit learned estimation), and
the target is the exact neighbor count at that threshold, stored as a
fraction of the training-set size.

Features are the raw query vector with the threshold appended as one
extra coordinate, matching the regressor interface of the learned
estimators the paper cites (query point + range -> cardinality).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.distances.matrix import iter_distance_blocks
from repro.distances.metric import COSINE, Metric, get_metric
from repro.exceptions import InvalidParameterError
from repro.rng import ensure_rng

__all__ = ["TrainingSet", "build_training_set", "DEFAULT_RADII", "make_features"]

#: The paper's threshold grid: cosine distances 0.1 .. 0.9.
DEFAULT_RADII: tuple[float, ...] = tuple(np.round(np.arange(0.1, 0.95, 0.1), 2))


@dataclasses.dataclass(frozen=True)
class TrainingSet:
    """Featurized supervision for a cardinality regressor.

    Attributes
    ----------
    features:
        ``(m, dim + 1)`` — query vector with the radius appended.
    fractions:
        ``(m,)`` — exact neighbor count divided by the reference size.
    n_reference:
        Size of the set the counts were measured against.
    radii:
        The threshold grid used.
    """

    features: np.ndarray
    fractions: np.ndarray
    n_reference: int
    radii: tuple[float, ...]

    @property
    def n_examples(self) -> int:
        return int(self.features.shape[0])

    @property
    def dim(self) -> int:
        """Dimensionality of the underlying vectors (without the radius)."""
        return int(self.features.shape[1]) - 1


def make_features(Q: np.ndarray, eps: float) -> np.ndarray:
    """Append the radius column to a batch of query vectors."""
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    radius_col = np.full((Q.shape[0], 1), float(eps))
    return np.hstack([Q, radius_col])


def build_training_set(
    X_train: np.ndarray,
    n_queries: int | None = None,
    radii: tuple[float, ...] = DEFAULT_RADII,
    seed: int | np.random.Generator | None = 0,
    metric: str | Metric = COSINE,
) -> TrainingSet:
    """Build (query, radius) -> fraction supervision from a training split.

    No index is built: each query block's float64 distances
    (:func:`~repro.distances.matrix.iter_distance_blocks`) count every radius.

    Parameters
    ----------
    X_train:
        Training vectors (unit-normalized for the cosine metric); also
        the reference set counted against.
    n_queries:
        How many training rows to use as queries (sampled without
        replacement). ``None`` uses all rows.
    radii:
        Distance thresholds; each query contributes one example per
        radius. The default grid is the paper's cosine 0.1-0.9; for the
        unbounded Euclidean metric supply a data-driven grid (e.g. from
        :func:`repro.distances.metric.suggest_radii`).
    seed:
        Seed for query sampling.
    metric:
        "cosine" (default) or "euclidean".
    """
    metric = get_metric(metric)
    if not radii:
        raise InvalidParameterError("radii must be non-empty")
    if any(not 0.0 < r <= metric.max_eps for r in radii):
        raise InvalidParameterError(
            f"radii must lie in (0, {metric.max_eps}]; got {radii}"
        )
    X_train = metric.validate(X_train)
    rng = ensure_rng(seed)
    n = X_train.shape[0]
    if n_queries is None or n_queries >= n:
        queries = X_train
    else:
        if n_queries <= 0:
            raise InvalidParameterError(f"n_queries must be positive; got {n_queries}")
        queries = X_train[rng.choice(n, size=n_queries, replace=False)]
    radii_arr = np.asarray(sorted(radii), dtype=np.float64)
    counts = np.empty((queries.shape[0], radii_arr.size), dtype=np.int64)
    blocks = iter_distance_blocks(queries, X_train, metric=metric.name)
    for start, stop, block in blocks:
        for j, radius in enumerate(radii_arr):
            counts[start:stop, j] = np.count_nonzero(block < radius, axis=1)
    m = queries.shape[0] * radii_arr.size
    features = np.empty((m, X_train.shape[1] + 1))
    features[:, :-1] = np.repeat(queries, radii_arr.size, axis=0)
    features[:, -1] = np.tile(radii_arr, queries.shape[0])
    fractions = counts.reshape(-1).astype(np.float64) / n
    return TrainingSet(
        features=features,
        fractions=fractions,
        n_reference=n,
        radii=tuple(float(r) for r in radii_arr),
    )
