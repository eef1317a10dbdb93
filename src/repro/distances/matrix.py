"""Batched and blockwise distance-matrix computation.

Full ``n x n`` distance matrices are quadratic in memory; the blockwise
iterator keeps peak memory bounded while staying vectorized, which is what
the brute-force index and the training-set builder use for large inputs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.exceptions import InvalidParameterError

__all__ = [
    "cosine_distance_matrix",
    "euclidean_distance_matrix",
    "squared_euclidean_distance_matrix",
    "pairwise_cosine_within",
    "iter_distance_blocks",
    "nearest_in_blocks",
]

#: Default number of query rows per block in blockwise iteration.
DEFAULT_BLOCK_SIZE = 1024


def cosine_distance_matrix(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Cosine distances between every row of ``Q`` and every row of ``X``.

    Both inputs must be unit-normalized. Returns shape ``(len(Q), len(X))``.
    Clamped at 0 so rounding on (near-)identical rows can't produce a
    negative distance that strict ``d < eps`` tests would treat
    differently across BLAS kernels.
    """
    Q = np.asarray(Q, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    return np.maximum(0.0, 1.0 - Q @ X.T)


def squared_euclidean_distance_matrix(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of ``Q`` and rows of ``X``.

    Clipped at 0 (the expansion can round slightly negative). This is
    the comparison kernel of the tree traversals, which test against
    squared thresholds and never need the sqrt.
    """
    Q = np.asarray(Q, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    q_sq = np.einsum("ij,ij->i", Q, Q)[:, None]
    x_sq = np.einsum("ij,ij->i", X, X)[None, :]
    sq = q_sq - 2.0 * (Q @ X.T) + x_sq
    return np.clip(sq, 0.0, None, out=sq)


def euclidean_distance_matrix(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Euclidean distances between rows of ``Q`` and rows of ``X``."""
    return np.sqrt(squared_euclidean_distance_matrix(Q, X))


def pairwise_cosine_within(X: np.ndarray) -> np.ndarray:
    """Symmetric cosine-distance matrix of a single point set."""
    return cosine_distance_matrix(X, X)


def iter_distance_blocks(
    Q: np.ndarray,
    X: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
    metric: str = "cosine",
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield ``(start, stop, D_block)`` distance blocks of ``Q`` vs ``X``.

    ``D_block`` has shape ``(stop - start, len(X))``; concatenating all
    blocks reproduces :func:`cosine_distance_matrix` (or
    :func:`euclidean_distance_matrix` for ``metric="euclidean"``) exactly,
    but peak memory is ``block_size * len(X)`` floats. This is the
    distance kernel under every batched index query.
    """
    if block_size <= 0:
        raise InvalidParameterError(f"block_size must be positive; got {block_size}")
    if metric not in ("cosine", "euclidean", "sqeuclidean"):
        raise InvalidParameterError(
            f"metric must be 'cosine', 'euclidean' or 'sqeuclidean'; got {metric!r}"
        )
    Q = np.asarray(Q, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    for start in range(0, Q.shape[0], block_size):
        stop = min(start + block_size, Q.shape[0])
        if metric == "cosine":
            yield start, stop, np.maximum(0.0, 1.0 - Q[start:stop] @ X.T)
        elif metric == "sqeuclidean":
            yield start, stop, squared_euclidean_distance_matrix(Q[start:stop], X)
        else:
            yield start, stop, euclidean_distance_matrix(Q[start:stop], X)


def nearest_in_blocks(
    blocks: Iterable[tuple[int, int, np.ndarray]], n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row argmin over ``(start, stop, D_block)`` distance blocks.

    Consumes :func:`iter_distance_blocks` output covering ``n_rows``
    query rows and returns ``(column, distance)``: each row's nearest
    column and its distance. Exact ties go to the first column. The
    nearest-core assignment of every sampling and block clusterer and
    of :class:`~repro.persistence.ClusterModel` runs through here.
    """
    column = np.empty(n_rows, dtype=np.int64)
    distance = np.empty(n_rows, dtype=np.float64)
    for start, stop, block in blocks:
        nearest = np.argmin(block, axis=1)
        column[start:stop] = nearest
        distance[start:stop] = block[np.arange(stop - start), nearest]
    return column, distance
