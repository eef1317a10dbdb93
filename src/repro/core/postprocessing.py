"""Algorithm 3: detect false negatives and merge wrongly split clusters.

A false-negative prediction (a true core point predicted as stop point)
can split one DBSCAN cluster into several: the cluster expansion stops
at the false stop point instead of flowing through it. Post-processing
repairs this with only the bookkeeping gathered during clustering:

for every recorded stop point ``P`` with ``|E(P)| >= tau`` (proof that
``P`` is truly core), take the cluster of the first non-noise partial
neighbor ``P'`` as the destination, and merge the clusters of all
points in ``E(P)`` — and ``P``'s own cluster, when a border claim put
it in one — into it. The paper selects ``P'`` randomly; every choice
merges the same clusters, so the first one gives the same partition
and draws nothing.

Merges use union-find so chains of repairs compose; the false-negative
point itself joins the destination cluster (it is a core member of the
merged cluster by construction).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.clustering.base import NOISE
from repro.clustering.union_find import UnionFind

__all__ = ["PostProcessOutcome", "post_process"]


@dataclasses.dataclass(frozen=True)
class PostProcessOutcome:
    """Labels after repair plus the counters the paper discusses."""

    labels: np.ndarray
    n_false_negatives: int
    n_merges: int


def post_process(
    labels: np.ndarray,
    E: dict[int, np.ndarray],
    tau: int,
) -> PostProcessOutcome:
    """Run Algorithm 3 over a finished labeling.

    Parameters
    ----------
    labels:
        Cluster ids with ``-1`` noise, as produced by the host algorithm
        *before* repair. Not mutated.
    E:
        The map from each predicted stop point to its partial neighbours,
        an ascending array each (:func:`repro.core.laf.partial_neighbors`).
    tau:
        The core threshold; ``|E(P)| >= tau`` flags a false negative.

    Stop points are repaired in the iteration order of ``E``, which is
    stop-point registration order (the host's frontier order). The
    order can matter: a repair sees the labels earlier repairs wrote,
    so a stop point that one repair moves out of noise joins a later
    repair's merge only when that repair runs second. The destination
    is the first non-noise partial neighbour; the paper's random pick
    among them merges the same clusters, so the partition is the same.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n_clusters = int(labels.max()) + 1 if labels.size and labels.max() >= 0 else 0
    uf = UnionFind(n_clusters)
    out = labels.copy()
    n_false_negatives = 0
    n_merges = 0
    for point, members in E.items():
        if members.size < tau:
            continue
        n_false_negatives += 1
        non_noise = members[out[members] != NOISE]
        if non_noise.size == 0:
            continue  # nothing to merge into — every partial neighbor is noise
        # Line 3: select a non-noise neighbor; its cluster is the
        # destination. Any one merges the same clusters.
        destination = uf.find(int(out[non_noise[0]]))
        merged = out[non_noise]
        if out[point] != NOISE:
            # A stop point already claimed as a border: its cluster is
            # one of those the false negative connects.
            merged = np.append(merged, out[point])
        for label in np.unique(merged):
            root = uf.find(int(label))
            if root != destination:
                uf.union(destination, root)
                destination = uf.find(destination)
                n_merges += 1
        # The false negative itself is a core member of the merged cluster.
        out[point] = destination
    if n_clusters:
        roots = np.array([uf.find(c) for c in range(n_clusters)], dtype=np.int64)
        cluster_ids = out >= 0
        out[cluster_ids] = roots[out[cluster_ids]]
    return PostProcessOutcome(
        labels=out,
        n_false_negatives=n_false_negatives,
        n_merges=n_merges,
    )
