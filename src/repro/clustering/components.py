"""Connected components of the eps-graph over a fit's core points, and the
assignment of every other point to its nearest core's cluster.

Each host reads its core graph off a join it has already made: DBSCAN
off its self-join, DBSCAN++ and LAF-DBSCAN++ off their sample join
``range_pairs(eps, rows=sample|gated)``, whose rows hold every core.
KNN-BLOCK, whose cores come from KNN blocks, joins its cores itself.
The sampling hosts read each point's candidate cores off the same join
(:func:`assign_to_cores`). The labeller computes no distance; the
assignment computes one only for a point whose candidates lie in more
than one cluster. The memory is a slot or a label per row and gathers
over the pairs.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.clustering.base import NOISE
from repro.distances.matrix import nearest_candidates

__all__ = ["assign_to_cores", "connected_components_within"]


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


def assign_to_cores(
    pairs: tuple[np.ndarray, np.ndarray],
    cores: np.ndarray,
    core_labels: np.ndarray,
    X: np.ndarray,
) -> np.ndarray:
    """Cluster label per row of ``X``: a core's own label, for every other
    row the label of its nearest core within eps, ``NOISE`` for none.

    ``pairs`` is a :meth:`~repro.index.base.NeighborIndex.range_pairs`
    result whose rows include every core, ``cores`` are row ids and
    ``core_labels`` their (non-negative) cluster labels. A pair
    with exactly one core end names a core within eps of the other end,
    once: as ``(core, j)`` for a ``j`` outside the join's rows, at the
    lower row for a row of the join. These are each point's candidates.
    A point whose candidates share one label takes it, since its nearest
    candidate carries it. The rest go through
    :func:`~repro.distances.matrix.nearest_candidates`, ``predict``'s
    select: the smallest float64 distance, exact ties to the lowest row.
    A candidate is the join's decision, exact up to pairs within a few
    ulps of ``eps``.
    """
    rows, cols = pairs
    n = X.shape[0]
    labels = np.full(n, NOISE, dtype=np.int64)
    labels[cores] = core_labels
    row_label, col_label = labels[rows], labels[cols]
    point_row = row_label == NOISE
    one = point_row != (col_label == NOISE)
    point = np.where(point_row, rows, cols)[one]
    # The non-core end's label is NOISE, so the larger one is the core's.
    candidate_label = np.maximum(row_label, col_label)[one]
    lowest = np.full(n, n, dtype=np.int64)  # above every label
    highest = np.full(n, NOISE, dtype=np.int64)
    np.minimum.at(lowest, point, candidate_label)
    np.maximum.at(highest, point, candidate_label)
    shared = lowest == highest
    labels[shared] = highest[shared]
    mixed = np.flatnonzero(lowest < highest)
    if mixed.size:
        is_mixed = np.zeros(n, dtype=bool)
        is_mixed[mixed] = True
        kept = is_mixed[point]
        at = np.flatnonzero(one)[kept]
        owner = point[kept]
        core = np.where(point_row[at], cols[at], rows[at])[np.argsort(owner)]
        # The select's columns are the candidates' union in row order, so
        # its lowest-column tie rule is the lowest row's.
        union, local = np.unique(core, return_inverse=True)
        sizes = np.bincount(owner, minlength=n)[mixed]
        candidates = np.split(local, np.cumsum(sizes)[:-1])
        nearest = nearest_candidates(X[mixed], X[union], candidates)
        labels[mixed] = labels[union[nearest]]
    return labels
