"""Connected components of the eps-graph over a fit's core points.

Each host reads its core graph off a join it has already made: DBSCAN
off its self-join, DBSCAN++ and LAF-DBSCAN++ off their sample join
``range_pairs(eps, rows=sample|gated)``, whose rows hold every core.
KNN-BLOCK, whose cores come from KNN blocks, joins its cores itself.
No distance is computed here; the memory is an int32 slot per row and
the int32 pairs.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

__all__ = ["connected_components_within"]


def connected_components_within(
    pairs: tuple[np.ndarray, np.ndarray], members: np.ndarray
) -> tuple[np.ndarray, int]:
    """Component id per member of the graph whose edges are the ``pairs``
    between two ``members``.

    ``pairs`` is a :meth:`~repro.index.base.NeighborIndex.range_pairs`
    result whose rows include every member (rows ascending, a pair of
    two of its rows once); ``members`` are strictly ascending row ids.

    Returns ``(labels, n_pairs)``: an int array of component labels
    ``0 .. k-1``, one per member (a member without edges is its own
    component), numbered in order of each component's lowest member, and
    the number of member pairs ``i < j`` (the edges of the core graph).
    Adjacency is the join's decision, exact up to pairs within a few
    ulps of ``eps``.
    """
    rows, cols = pairs
    members = np.asarray(members, dtype=np.int64)
    m = members.size
    size = 1 + max(members.max(initial=-1), rows.max(initial=-1), cols.max(initial=-1))
    # A row's position among the members, m for every other row.
    slot = np.full(size, m, dtype=np.int32)
    slot[members] = np.arange(m, dtype=np.int32)
    rows, cols = slot[rows], slot[cols]
    linked = (rows < m) & (cols < m)
    rows, cols = rows[linked], cols[linked]
    # Ascending members keep the rows ascending: the CSR graph is the
    # pairs as given, with indptr found by binary search and no
    # COO-to-CSR conversion.
    indptr = np.searchsorted(rows, np.arange(m + 1))
    graph = csr_matrix((np.ones(rows.size, dtype=np.int8), cols, indptr), shape=(m, m))
    # The undirected search starts from unlabelled nodes in order, so
    # components come out numbered by their lowest node.
    _, labels = connected_components(graph, directed=False)
    return labels.astype(np.int64), int(np.count_nonzero(rows < cols))
