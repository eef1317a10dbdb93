"""Baseline clustering algorithms the paper evaluates against.

* :class:`DBSCAN` — the original algorithm (Ester et al. 1996); its
  output is the paper's quality ground truth.
* :class:`DBSCANPlusPlus` — sampling-based variant (Jang & Jiang 2018);
  also the host algorithm of LAF-DBSCAN++.
* :class:`KNNBlockDBSCAN` — block-based variant driven by approximate
  KNN queries on a k-means tree (Chen et al. 2019).
* :class:`BlockDBSCAN` — block-based variant driven by exact range
  queries with bounded merge iterations (Chen et al. 2021).
* :class:`RhoApproxDBSCAN` — grid-based rho-approximate DBSCAN
  (Gan & Tao 2015), included to reproduce the paper's finding that it is
  slower than plain DBSCAN in high dimensions (Table 4).

All operate on unit-normalized vectors under cosine distance with the
paper's neighborhood convention ``N(P) = {Q : d(P, Q) < eps}`` (a point
neighbors itself) and core test ``|N(P)| >= tau``.
"""

from repro.clustering.base import ClusteringResult, Clusterer
from repro.clustering.block_dbscan import BlockDBSCAN
from repro.clustering.dbscan import DBSCAN
from repro.clustering.dbscanpp import DBSCANPlusPlus
from repro.clustering.knn_block import KNNBlockDBSCAN
from repro.clustering.rho_approx import RhoApproxDBSCAN
from repro.clustering.union_find import UnionFind

__all__ = [
    "BlockDBSCAN",
    "Clusterer",
    "ClusteringResult",
    "DBSCAN",
    "DBSCANPlusPlus",
    "KNNBlockDBSCAN",
    "RhoApproxDBSCAN",
    "UnionFind",
]
