"""Connected components of the eps-proximity graph over a point set.

DBSCAN++ (and LAF-DBSCAN++) cluster their detected core points by
connecting any two within ``eps``. The core graph is built set at a
time: row block ``[s, e)`` is compared with rows ``s..m-1`` only (the
upper triangle, since the relation is symmetric) through the cosine
range kernel :func:`~repro.distances.matrix.iter_cosine_range_masks`,
the pairs are collected into one CSR matrix, and scipy labels its
connected components. Peak memory is a float32 copy of the points,
one kernel block and the CSR pairs.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.distances.matrix import (
    DEFAULT_BLOCK_SIZE,
    _max_row_norm,
    iter_cosine_range_masks,
)

__all__ = ["connected_components_within"]


def connected_components_within(X: np.ndarray, eps: float) -> tuple[np.ndarray, int]:
    """Component id per row of ``X`` under cosine-distance-< eps adjacency.

    Returns ``(labels, n_pairs)``: an int array of component labels
    ``0 .. k-1`` (every row gets one; singletons form their own
    components), numbered in order of each component's lowest row, and
    the number of pairs ``i < j`` within ``eps`` (the upper-triangle
    edges of the core graph). Adjacency is the range kernel's decision,
    exact up to pairs within a few ulps of ``eps``.
    """
    X = np.asarray(X, dtype=np.float64)
    m = X.shape[0]
    X32 = X.astype(np.float32)
    x_norm = _max_row_norm(X)
    indices: list[np.ndarray] = []
    row_counts = np.zeros(m + 1, dtype=np.int64)
    for s in range(0, m, DEFAULT_BLOCK_SIZE):
        e = min(s + DEFAULT_BLOCK_SIZE, m)
        _, _, mask = next(
            iter_cosine_range_masks(X[s:e], X[s:], eps, X32=X32[s:], x_norm=x_norm)
        )
        # Keep pairs i < j: drop the diagonal block's diagonal and lower half.
        mask[:, : e - s] = np.triu(mask[:, : e - s], k=1)
        indices.append((np.nonzero(mask)[1] + s).astype(np.int32))
        row_counts[s + 1 : e + 1] = np.count_nonzero(mask, axis=1)
    cols = np.concatenate(indices) if indices else np.empty(0, dtype=np.int32)
    graph = csr_matrix(
        (np.ones(cols.size, dtype=np.int8), cols, np.cumsum(row_counts)), shape=(m, m)
    )
    # The undirected search starts from unlabelled rows in row order, so
    # components come out numbered by their lowest row.
    _, labels = connected_components(graph, directed=False)
    return labels.astype(np.int64), int(cols.size)
