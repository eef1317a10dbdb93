"""Spatial index substrates used by the clustering algorithms.

Three indexes back the paper's methods:

* :class:`BruteForceIndex` — exact, vectorized range queries; the one
  range-query engine, used by DBSCAN, DBSCAN++, BLOCK-DBSCAN and the
  LAF-enhanced variants (the paper's "range query" primitive).
* :class:`KMeansTree` — FLANN-style hierarchical k-means tree for
  approximate KNN; used by KNN-BLOCK DBSCAN (knobs: branching factor and
  ratio of leaves to check). It answers KNN queries only.
* :class:`GridIndex` — cells of side ``eps / sqrt(d)``; rho-approximate
  DBSCAN's cell structure for its approximate counts and cell merging.
  It is not a range engine: that method's exact border queries go
  through brute force too.

Neither metric trees nor the grid are range engines here: trees prune
on a low doubling dimension and a grid on crowded cells, which 768-d
embeddings under angular distance do not have. Brute force beat both
tree engines this repository once carried even on 16-d clustered data,
and the grid by 16x or more on the paper's datasets
(``docs/engine.md``).

Range-query indexes answer batched queries (``batch_range_query``, its
``_rows`` form that names the indexed points by row id, and the
``range_pairs`` join over rows); :class:`ShardedIndex` fans them across
row shards on a remote worker pool.
A fit asks for every row it plans to query in one row-id call and reads
the neighbourhoods from the returned list — see ``docs/engine.md``.
:class:`BruteForceIndex` also keeps the scalar float64 ``range_query`` /
``range_count`` as the reference the batched kernels are tested against.
"""

from repro.index.base import NeighborIndex
from repro.index.brute_force import BruteForceIndex
from repro.index.grid import GridIndex
from repro.index.kmeans_tree import KMeansTree
from repro.index.sharded import ExecutorSpec, ShardedIndex, ShardingConfig

__all__ = [
    "BruteForceIndex",
    "ExecutorSpec",
    "GridIndex",
    "KMeansTree",
    "NeighborIndex",
    "ShardedIndex",
    "ShardingConfig",
]
