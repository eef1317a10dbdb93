"""Spatial index substrates used by the clustering algorithms.

Three indexes back the paper's methods:

* :class:`BruteForceIndex` — exact, vectorized range queries; the one
  range-query engine, used by DBSCAN, DBSCAN++, BLOCK-DBSCAN and the
  LAF-enhanced variants (the paper's "range query" primitive).
* :class:`KMeansTree` — FLANN-style hierarchical k-means tree for
  approximate KNN; used by KNN-BLOCK DBSCAN (knobs: branching factor and
  ratio of leaves to check). It answers KNN queries only.
* :class:`GridIndex` — cells of side ``eps / sqrt(d)``; used by
  rho-approximate DBSCAN.

Metric trees are not range engines here: they prune on a low doubling
dimension, which 768-d embeddings under angular distance do not have,
and brute force beat both tree engines this repository once carried
even on 16-d clustered data (``docs/engine.md``).

Range-query indexes answer scalar queries (``range_query``,
``range_count``) and their batched forms (``batch_range_query``,
``batch_range_count``); :class:`ShardedIndex` fans the batched forms
across row shards, and :class:`NeighborhoodCache` is the engine the
clusterers use to route frontier expansions through them — see
``docs/engine.md``.
"""

from repro.index.base import NeighborIndex
from repro.index.brute_force import BruteForceIndex
from repro.index.engine import NeighborhoodCache
from repro.index.grid import GridIndex
from repro.index.kmeans_tree import KMeansTree
from repro.index.sharded import ExecutorSpec, ShardedIndex, ShardingConfig

__all__ = [
    "BruteForceIndex",
    "ExecutorSpec",
    "GridIndex",
    "KMeansTree",
    "NeighborIndex",
    "NeighborhoodCache",
    "ShardedIndex",
    "ShardingConfig",
]
