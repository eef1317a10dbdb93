"""Scalar and one-to-many distance kernels.

All cosine-family kernels assume unit-normalized inputs, which makes
``d_cos(u, v) = 1 - <u, v>`` exact and keeps every kernel a single BLAS
call. :func:`normalize_rows` is the supported way to prepare data.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "normalize_rows",
    "cosine_similarity",
    "cosine_distance",
    "angular_distance",
    "euclidean_distance",
    "cosine_distance_to_many",
    "euclidean_distance_to_many",
    "squared_euclidean_distance_to_many",
]


def normalize_rows(X: np.ndarray, copy: bool = True) -> np.ndarray:
    """Scale each row of ``X`` to unit L2 norm.

    Zero rows are left untouched (norm clamped to 1) rather than producing
    NaNs, so degenerate generator output stays finite. ``copy=False``
    divides a writeable float64 ``X`` in place (other inputs convert).
    """
    X = np.array(X, dtype=np.float64) if copy else np.asarray(X, dtype=np.float64)
    if not X.flags.writeable:
        X = X.copy()
    if X.ndim == 1:
        X /= float(np.linalg.norm(X)) or 1.0  # a zero vector stays as it is
        return X
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    np.maximum(norms, np.finfo(np.float64).tiny, out=norms)
    norms[norms == 0.0] = 1.0
    X /= norms
    return X


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Inner product of two unit vectors (their cosine similarity)."""
    return float(np.dot(u, v))


def cosine_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine distance ``1 - <u, v>`` between unit vectors; range [0, 2].

    Clamped at 0: rounding can push the inner product of (near-)identical
    unit vectors a hair above 1, and a negative distance would make the
    strict ``d < eps`` neighborhood test depend on which BLAS kernel
    computed it.
    """
    return max(0.0, 1.0 - float(np.dot(u, v)))


def angular_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Normalized angle between unit vectors: ``arccos(<u, v>) / pi``.

    Range [0, 1]. A true metric, unlike cosine distance. Provided for
    completeness; the paper's experiments use cosine distance.
    """
    sim = float(np.clip(np.dot(u, v), -1.0, 1.0))
    return float(np.arccos(sim) / np.pi)


def euclidean_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Plain Euclidean distance ``||u - v||``."""
    return float(np.linalg.norm(np.asarray(u) - np.asarray(v)))


def cosine_distance_to_many(q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Cosine distances from one unit query ``q`` to every row of ``X``.

    A single matrix-vector product; the workhorse of every range query in
    this library. Clamped at 0 (see :func:`cosine_distance`) so scalar
    and batched kernels agree bit-for-bit on zero distances.
    """
    return np.maximum(0.0, 1.0 - X @ np.asarray(q, dtype=np.float64))


def squared_euclidean_distance_to_many(q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from ``q`` to every row of ``X``.

    Uses the expansion ``||x - q||^2 = ||x||^2 - 2<x, q> + ||q||^2`` so it
    stays one BLAS call; negative rounding artifacts are clipped at 0.
    The tree traversals compare these against squared thresholds, which
    avoids a sqrt round-trip at exact-boundary distances.
    """
    q = np.asarray(q, dtype=np.float64)
    sq = np.einsum("ij,ij->i", X, X) - 2.0 * (X @ q) + float(np.dot(q, q))
    return np.clip(sq, 0.0, None, out=sq)


def euclidean_distance_to_many(q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Euclidean distances from ``q`` to every row of ``X``."""
    return np.sqrt(squared_euclidean_distance_to_many(q, X))
