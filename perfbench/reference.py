"""Exact reference outputs, computed with numpy and scipy alone.

The benchmark checks the program's exact outputs against these. They
share no code with the program, so an optimisation of one of its
kernels that returns wrong neighbourhoods changes the program's labels
and not the reference's. Both compute the cosine distance as
``1 - q . x`` in float64 and call a pair neighbours when it is below
``eps``, as the paper's DBSCAN does; a pair that the two summation
orders put on different sides of ``eps`` would have to lie within a few
ulps of it.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

__all__ = ["dbscan_labels", "predict_labels"]

NOISE = -1
BLOCK_ROWS = 512


def _first_appearance(labels: np.ndarray) -> np.ndarray:
    """Renumber clusters 0, 1, ... in order of their first point."""
    out = np.full_like(labels, NOISE)
    clustered = labels != NOISE
    ids, first = np.unique(labels[clustered], return_index=True)
    rank = np.empty(ids.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(ids.size)
    out[clustered] = rank[np.searchsorted(ids, labels[clustered])]
    return out


def dbscan_labels(X: np.ndarray, eps: float, tau: int) -> np.ndarray:
    """Labels of sequential DBSCAN over the points in index order.

    Sequential DBSCAN (Ester et al. 1996) visits points in index order
    and expands a cluster from each unlabelled core point before it
    visits the next point. Its clusters are therefore the components of
    the graph of core points within ``eps`` of each other, created in the
    order of their lowest core point, and a border point joins the first
    created cluster that has a core point within ``eps`` of it. Noise is
    ``-1``; clusters are numbered in order of their first point.
    """
    n = X.shape[0]
    rows, cols = [], []
    for lo in range(0, n, BLOCK_ROWS):
        r, c = np.nonzero(1.0 - X[lo : lo + BLOCK_ROWS] @ X.T < eps)
        rows.append(r + lo)
        cols.append(c)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    core = np.bincount(rows, minlength=n) >= tau
    linked = core[rows] & core[cols]
    graph = csr_matrix(
        (np.ones(int(linked.sum()), dtype=np.int8), (rows[linked], cols[linked])),
        shape=(n, n),
    )
    _, component = connected_components(graph, directed=False)
    core_ids = np.flatnonzero(core)
    lowest = np.full(component.max() + 1, n)
    np.minimum.at(lowest, component[core_ids], core_ids)
    created = np.argsort(np.argsort(lowest))  # component -> creation order
    labels = np.full(n, n, dtype=np.int64)
    labels[core_ids] = created[component[core_ids]]
    border = ~core[rows] & core[cols]
    np.minimum.at(labels, rows[border], created[component[cols[border]]])
    labels[labels == n] = NOISE
    return _first_appearance(labels)


def predict_labels(
    cores: np.ndarray, core_labels: np.ndarray, Q: np.ndarray, eps: float
) -> np.ndarray:
    """Label of each query's nearest core within ``eps``, else ``-1``.

    Exact ties go to the core listed first, as in ``ClusterModel``.
    """
    out = np.full(len(Q), NOISE, dtype=np.int64)
    for lo in range(0, len(Q), BLOCK_ROWS):
        D = 1.0 - Q[lo : lo + BLOCK_ROWS] @ cores.T
        nearest = np.argmin(D, axis=1)  # the first of tied minima
        inside = D[np.arange(len(D)), nearest] < eps
        out[lo : lo + len(D)] = np.where(inside, core_labels[nearest], NOISE)
    return out
