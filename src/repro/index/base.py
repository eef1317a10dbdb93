"""Abstract interface shared by all neighbor indexes.

Besides the :class:`NeighborIndex` contract this module hosts the shared
kernels of the vectorized tree traversals (cover tree, k-means tree):
CSR frontier expansion, pairwise distance evaluation for (query, node)
frontier pairs, and grouping of flat hit pairs back into per-query
arrays. They are plain functions so both trees — and any future
backend — use identical, separately-tested building blocks.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.distances.matrix import iter_distance_blocks
from repro.exceptions import NotFittedError

__all__ = [
    "NeighborIndex",
    "expand_csr",
    "group_hit_pairs",
    "grouped_pair_distances",
]

#: Upper bound on the floats materialized per chunk in the pairwise
#: distance path (~32 MB of float64 temporaries at the default).
_PAIR_CHUNK_FLOATS = 1 << 22


def expand_csr(
    offsets: np.ndarray, flat: np.ndarray, parents: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather ``flat[offsets[p] : offsets[p + 1]]`` for every parent at once.

    The standard vectorized multi-range (CSR) gather: returns
    ``(counts, values)`` where ``counts[i]`` is the slice length of
    ``parents[i]`` and ``values`` concatenates the slices in parent
    order, with no Python loop over parents. This is the frontier
    expansion step of the level-synchronous tree traversals: parents are
    the live frontier nodes, values their children.
    """
    starts = offsets[parents]
    counts = offsets[parents + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return counts, np.empty(0, dtype=flat.dtype)
    ends = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return counts, flat[np.repeat(starts, counts) + within]


def grouped_pair_distances(
    Q: np.ndarray,
    q_flat: np.ndarray,
    col_offsets: np.ndarray,
    C: np.ndarray,
    Q_sq: np.ndarray | None = None,
    C_sq: np.ndarray | None = None,
    dense_work_factor: float = 12.0,
    block_size: int = 1024,
    squared: bool = False,
) -> np.ndarray:
    """Euclidean distances for the (query, column) pairs of a CSR frontier.

    ``C`` holds one row per frontier column (tree node); column ``j``
    pairs with the queries ``q_flat[col_offsets[j] : col_offsets[j + 1]]``.
    Returns one distance per entry of ``q_flat``, in order. This is the
    distance kernel of the level-synchronous tree traversals, and it
    picks between two vectorized strategies per call:

    * **dense** — compute the full column-by-query distance matrix in
      row blocks via :func:`~repro.distances.matrix.iter_distance_blocks`
      (one BLAS product per block) and fancy-index the requested pairs
      out of each block. Best near the top of a tree, where every
      query's frontier is the same handful of nodes, so almost every
      matrix entry is needed. Chosen when the matrix holds at most
      ``dense_work_factor`` entries per requested pair, which bounds the
      wasted work; blocking bounds peak memory regardless. The default
      factor is deliberately generous because one GEMM entry costs
      roughly an order of magnitude less than one gathered pairwise
      entry.
    * **pairwise** — evaluate exactly the requested pairs in bounded
      chunks with the same ``||c - q||^2 = ||c||^2 - 2<c, q> + ||q||^2``
      expansion. Best deep in a tree, where frontiers are sparse and
      per-query distinct.

    ``Q_sq`` / ``C_sq`` are optional precomputed squared row norms
    (callers traversing many levels amortize them across calls). With
    ``squared=True`` the clipped *squared* distances are returned —
    callers comparing against thresholds square the threshold instead
    and skip a sqrt over every pair.
    """
    n_pairs = q_flat.shape[0]
    n_cols = C.shape[0]
    if n_pairs == 0:
        return np.empty(0)
    col_of_entry = np.repeat(np.arange(n_cols, dtype=np.int64), np.diff(col_offsets))
    out = np.empty(n_pairs)
    if Q.shape[0] * n_cols <= dense_work_factor * n_pairs:
        metric = "sqeuclidean" if squared else "euclidean"
        for start, stop, block in iter_distance_blocks(
            C, Q, block_size=block_size, metric=metric
        ):
            lo = col_offsets[start]
            hi = col_offsets[stop]
            out[lo:hi] = block[col_of_entry[lo:hi] - start, q_flat[lo:hi]]
        return out
    if Q_sq is None:
        Q_sq = np.einsum("ij,ij->i", Q, Q)
    if C_sq is None:
        C_sq = np.einsum("ij,ij->i", C, C)
    chunk = max(1, _PAIR_CHUNK_FLOATS // max(1, Q.shape[1]))
    for start in range(0, n_pairs, chunk):
        stop = min(start + chunk, n_pairs)
        q_idx = q_flat[start:stop]
        c_idx = col_of_entry[start:stop]
        sq = (
            C_sq[c_idx]
            - 2.0 * np.einsum("ij,ij->i", Q[q_idx], C[c_idx])
            + Q_sq[q_idx]
        )
        np.clip(sq, 0.0, None, out=sq)
        out[start:stop] = sq if squared else np.sqrt(sq)
    return out


def group_hit_pairs(
    hit_q: np.ndarray, hit_p: np.ndarray, n_points: int, n_queries: int
) -> list[np.ndarray]:
    """Split flat (query, point) hit pairs into per-query sorted arrays.

    Row ``i`` of the result holds, in ascending order, every ``hit_p``
    whose ``hit_q`` equals ``i`` — the output convention of
    ``batch_range_query``. Queries with no hits get empty arrays.

    Sorts once on the combined key ``hit_q * n_points + hit_p`` (a
    single int64 sort beats a two-key lexsort on multi-million-pair hit
    sets) and splits on query boundaries.
    """
    if hit_q.shape[0] == 0:
        return [np.empty(0, dtype=np.int64) for _ in range(n_queries)]
    span = np.int64(max(n_points, 1))
    combined = np.sort(hit_q * span + hit_p)
    bounds = np.searchsorted(combined, np.arange(n_queries + 1, dtype=np.int64) * span)
    return [
        combined[bounds[i] : bounds[i + 1]] - np.int64(i) * span
        for i in range(n_queries)
    ]


class NeighborIndex(abc.ABC):
    """A point set supporting distance-threshold and KNN queries.

    Implementations store the dataset at ``build`` time and answer queries
    against it. Distances in the public API are always *cosine* distances
    on unit vectors — implementations that work in another metric
    internally (cover tree, k-means tree, grid) do their own conversion.
    """

    _points: np.ndarray | None = None

    @property
    def n_points(self) -> int:
        """Number of indexed points."""
        return 0 if self._points is None else int(self._points.shape[0])

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has run (so queries and ``points`` work).

        Hosts use this to tell an index they must still build from one
        they can query — the batched engine's shard-before-build seam
        (:func:`~repro.index.sharded.resolve_engine_index`) keys on it.
        """
        return self._points is not None

    @property
    def points(self) -> np.ndarray:
        """The indexed point matrix, shape ``(n_points, dim)``.

        The public accessor persistence relies on to save an index's
        rows. Raises :class:`NotFittedError` before :meth:`build`.
        """
        if self._points is None:
            raise NotFittedError(f"{type(self).__name__} has not been built yet")
        return self._points

    @abc.abstractmethod
    def build(self, X: np.ndarray) -> "NeighborIndex":
        """Index the rows of ``X`` (unit-normalized) and return ``self``."""

    @abc.abstractmethod
    def range_query(self, q: np.ndarray, eps: float) -> np.ndarray:
        """Indices of points with cosine distance to ``q`` strictly below ``eps``.

        Matches the paper's neighborhood definition
        ``N = {Q | d(P, Q) < eps}``; a query equal to an indexed point
        therefore returns that point itself.
        """

    def range_count(self, q: np.ndarray, eps: float) -> int:
        """Number of points within cosine distance ``eps`` of ``q``."""
        return int(self.range_query(q, eps).size)

    # ------------------------------------------------------------------
    # Batched queries
    #
    # The batched forms are the engine API every clusterer goes through
    # (see repro.index.engine). The base implementations loop over the
    # scalar queries — row-for-row identical by construction — so every
    # index is batch-capable; backends with a vectorized kernel
    # (BruteForceIndex) override them with blockwise implementations.
    # ------------------------------------------------------------------

    @staticmethod
    def _as_query_matrix(Q: np.ndarray) -> np.ndarray:
        """Normalize a query batch to 2-d float64 (a 1-d row is one query)."""
        Q = np.asarray(Q, dtype=np.float64)
        if Q.ndim == 1:
            Q = Q[None, :]
        return Q

    def batch_range_query(self, Q: np.ndarray, eps: float) -> list[np.ndarray]:
        """Neighbor index arrays for every row of ``Q`` at threshold ``eps``.

        Row ``i`` of the result equals ``range_query(Q[i], eps)``. An
        empty batch (shape ``(0, dim)``) returns an empty list.
        """
        self._require_built()
        return [self.range_query(q, eps) for q in self._as_query_matrix(Q)]

    def batch_range_count(self, Q: np.ndarray, eps: float) -> np.ndarray:
        """Neighbor counts for every row of ``Q`` at threshold ``eps``."""
        self._require_built()
        Q = self._as_query_matrix(Q)
        return np.fromiter(
            (self.range_count(q, eps) for q in Q), dtype=np.int64, count=Q.shape[0]
        )

    def batch_knn_query(
        self, Q: np.ndarray, k: int
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-row KNN results: ``(index_arrays, cosine_distance_arrays)``.

        Returned as two ragged lists rather than matrices because
        approximate indexes may surface fewer than ``k`` candidates for
        some rows.
        """
        self._require_built()
        indices: list[np.ndarray] = []
        dists: list[np.ndarray] = []
        for q in self._as_query_matrix(Q):
            idx, d = self.knn_query(q, k)
            indices.append(idx)
            dists.append(d)
        return indices, dists

    @abc.abstractmethod
    def knn_query(self, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest indexed points to ``q``.

        Returns ``(indices, cosine_distances)`` sorted by ascending
        distance. Approximate indexes may miss true neighbors; exactness
        is documented per implementation.
        """

    def _require_built(self) -> None:
        if self._points is None:
            raise NotFittedError(f"{type(self).__name__} has not been built yet")

    # ------------------------------------------------------------------
    # Persistence
    #
    # Backends expose their built state as a flat dict of arrays
    # (to_arrays / from_arrays); the artifact layer (repro.persistence)
    # handles the manifest, checksums, and memory-mapping. from_arrays
    # must accept the arrays exactly as to_arrays produced them —
    # including read-only memory maps — without copying the point
    # matrix.
    # ------------------------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The built state as named arrays; requires :meth:`build`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support persistence"
        )

    def from_arrays(self, arrays: dict) -> "NeighborIndex":
        """Restore built state from :meth:`to_arrays` output; returns self."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support persistence"
        )

    def save(self, path) -> "NeighborIndex":
        """Persist the built index as an artifact directory at ``path``.

        See :func:`repro.persistence.save_index` for the format; load it
        back with :meth:`load` or :func:`repro.persistence.load_index`.
        """
        from repro.persistence import save_index

        save_index(self, path)
        return self

    @classmethod
    def load(cls, path, *, mmap: bool = True, verify: bool = True):
        """Load an index saved with :meth:`save`, memory-mapped by default.

        Called on a concrete class, the artifact must hold that type
        (a :class:`~repro.exceptions.PersistenceError` otherwise);
        called on :class:`NeighborIndex`, any index artifact loads.
        """
        from repro.persistence import _check_loaded_type, load_index

        index = load_index(path, mmap=mmap, verify=verify)
        if cls is not NeighborIndex:
            _check_loaded_type(index, cls, path)
        return index
