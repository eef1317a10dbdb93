"""Connected components of the eps-proximity graph over a point set.

DBSCAN++ (and LAF-DBSCAN++) cluster their detected core points by
connecting any two within ``eps``. The core graph is built set at a
time by the index self-join
:meth:`~repro.index.brute_force.BruteForceIndex.range_pairs` (each
pair computed once, on the upper triangle), and scipy labels its
connected components. DBSCAN labels its core-core graph with the same
:func:`pair_components`. Peak memory is a float32 copy of the points,
one kernel block and the int32 pairs.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.index.brute_force import BruteForceIndex

__all__ = ["connected_components_within", "pair_components"]


def pair_components(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Component id per node of the undirected graph with edges ``(rows, cols)``.

    Nodes are ``0 .. n-1``; every node gets an id (a node without edges
    is its own component), numbered ``0 .. k-1`` in order of each
    component's lowest node.

    ``rows`` must be sorted ascending, as in the row-major pairs of
    :meth:`~repro.index.base.NeighborIndex.range_pairs`: the edges are
    the CSR graph as given, with ``indptr`` found by binary search and
    no COO-to-CSR conversion.
    """
    indptr = np.searchsorted(rows, np.arange(n + 1))
    graph = csr_matrix((np.ones(rows.size, dtype=np.int8), cols, indptr), shape=(n, n))
    # The undirected search starts from unlabelled nodes in order, so
    # components come out numbered by their lowest node.
    _, labels = connected_components(graph, directed=False)
    return labels.astype(np.int64)


def connected_components_within(X: np.ndarray, eps: float) -> tuple[np.ndarray, int]:
    """Component id per row of ``X`` under cosine-distance-< eps adjacency.

    Returns ``(labels, n_pairs)``: an int array of component labels
    ``0 .. k-1`` (every row gets one; singletons form their own
    components), numbered in order of each component's lowest row, and
    the number of pairs ``i < j`` within ``eps`` (the edges of the core
    graph). Adjacency is the range kernel's decision, exact up to pairs
    within a few ulps of ``eps``.
    """
    X = np.asarray(X, dtype=np.float64)
    # Attached, not built: the rows were validated with the dataset
    # they come from, and an empty core set is a valid input.
    rows, cols = BruteForceIndex()._attach(X).range_pairs(eps)
    n_pairs = int(np.count_nonzero(rows < cols))
    return pair_components(rows, cols, X.shape[0]), n_pairs
