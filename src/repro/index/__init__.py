"""Spatial index substrates used by the clustering algorithms.

Four indexes back the paper's methods:

* :class:`BruteForceIndex` — exact, vectorized range queries; used by
  DBSCAN, DBSCAN++ and the LAF-enhanced variants (the paper's "range
  query" primitive).
* :class:`CoverTree` — metric tree with configurable base; used by
  BLOCK-DBSCAN, whose trade-off knob is the cover-tree basis.
* :class:`KMeansTree` — FLANN-style hierarchical k-means tree for
  approximate KNN; used by KNN-BLOCK DBSCAN (knobs: branching factor and
  ratio of leaves to check).
* :class:`GridIndex` — cells of side ``eps / sqrt(d)``; used by
  rho-approximate DBSCAN.

All tree indexes operate in the Euclidean metric on unit vectors and
convert cosine thresholds with the paper's Equation 1, because cosine
distance itself violates the triangle inequality.

Every index answers scalar range queries (``range_query``,
``range_count``) and their batched forms (``batch_range_query``,
``batch_range_count``); :class:`NeighborhoodCache` is the engine the
clusterers use to route frontier expansions through the batched forms —
see ``docs/engine.md``. KNN search is not part of the contract: only the
k-means tree (for KNN-BLOCK DBSCAN) and the brute-force index (its exact
reference) answer scalar KNN queries.
"""

from repro.index.base import NeighborIndex
from repro.index.brute_force import BruteForceIndex
from repro.index.cover_tree import CoverTree
from repro.index.engine import NeighborhoodCache
from repro.index.grid import GridIndex
from repro.index.kmeans_tree import KMeansTree
from repro.index.sharded import ExecutorSpec, ShardedIndex, ShardingConfig

__all__ = [
    "BruteForceIndex",
    "CoverTree",
    "ExecutorSpec",
    "GridIndex",
    "KMeansTree",
    "NeighborIndex",
    "NeighborhoodCache",
    "ShardedIndex",
    "ShardingConfig",
]
