"""Batched and blockwise distance-matrix computation.

Full ``n x n`` distance matrices are quadratic in memory; the blockwise
iterators keep peak memory bounded while staying vectorized, which is
what the brute-force index and the training-set builder use for large
inputs. :func:`iter_cosine_range_masks` is the cosine range-query
kernel: a float32 GEMM with an exact float64 recheck of the pairs near
the threshold. :func:`nearest_within` finds each query's nearest row
within ``eps`` from the same GEMM, and :func:`nearest_candidates`
selects each query's nearest row among given candidates the same way.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import InvalidParameterError

__all__ = [
    "cosine_distance_matrix",
    "euclidean_distance_matrix",
    "squared_euclidean_distance_matrix",
    "iter_distance_blocks",
    "iter_cosine_range_masks",
    "nearest_candidates",
    "nearest_in_blocks",
    "nearest_within",
]

#: Default number of query rows per block in blockwise iteration.
DEFAULT_BLOCK_SIZE = 1024


def cosine_distance_matrix(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Cosine distances between every row of ``Q`` and every row of ``X``.

    Both inputs must be unit-normalized. Returns shape ``(len(Q), len(X))``.
    Clamped at 0 so rounding on (near-)identical rows can't produce a
    negative distance that strict ``d < eps`` tests would treat
    differently across BLAS kernels.
    """
    G = np.asarray(Q, dtype=np.float64) @ np.asarray(X, dtype=np.float64).T
    np.subtract(1.0, G, out=G)
    return np.maximum(G, 0.0, out=G)


def squared_euclidean_distance_matrix(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of ``Q`` and rows of ``X``.

    Clipped at 0 (the expansion can round slightly negative). The
    Euclidean kernel of :func:`euclidean_distance_matrix`, which takes
    its square root.
    """
    Q = np.asarray(Q, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    q_sq = np.einsum("ij,ij->i", Q, Q)[:, None]
    x_sq = np.einsum("ij,ij->i", X, X)[None, :]
    sq = q_sq - 2.0 * (Q @ X.T) + x_sq
    return np.clip(sq, 0.0, None, out=sq)


def euclidean_distance_matrix(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Euclidean distances between rows of ``Q`` and rows of ``X``."""
    return np.sqrt(squared_euclidean_distance_matrix(Q, X))


def iter_distance_blocks(
    Q: np.ndarray,
    X: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
    metric: str = "cosine",
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield ``(start, stop, D_block)`` distance blocks of ``Q`` vs ``X``.

    ``D_block`` has shape ``(stop - start, len(X))``; concatenating all
    blocks reproduces :func:`cosine_distance_matrix` (or
    :func:`euclidean_distance_matrix` for ``metric="euclidean"``) exactly,
    but peak memory is ``block_size * len(X)`` floats. This is the
    distance kernel under every batched index query.
    """
    if block_size <= 0:
        raise InvalidParameterError(f"block_size must be positive; got {block_size}")
    if metric not in ("cosine", "euclidean"):
        raise InvalidParameterError(
            f"metric must be 'cosine' or 'euclidean'; got {metric!r}"
        )
    Q = np.asarray(Q, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    for start in range(0, Q.shape[0], block_size):
        stop = min(start + block_size, Q.shape[0])
        if metric == "cosine":
            yield start, stop, cosine_distance_matrix(Q[start:stop], X)
        else:
            yield start, stop, euclidean_distance_matrix(Q[start:stop], X)


#: Unit roundoff of float32 and float64.
_U32 = 2.0**-24
_U64 = 2.0**-53

#: Largest row norm (and |eps|) the float32 path accepts. Below it no
#: float32 input, product or partial sum can overflow; blocks beyond it
#: (and blocks with non-finite queries) are computed in float64.
_MAX_FLOAT32_NORM = 2.0**60

#: Cost of rechecking one band pair in float64 (two row gathers and a
#: dot product), in entries of a float64 GEMM block. Measured on a 2-CPU
#: x86 container with 1024 x 10,000 blocks: 280-300 at d=768 and
#: d=1536, 105-175 at d=256, 50-78 at d=64, 9 at d=3. A block whose
#: band costs more than its float64 GEMM is recomputed in float64
#: instead; at small d both are cheap and the band is narrow.
_RECHECK_COST = 256

#: Floats gathered per recheck chunk (two float64 operands of ~16 MB).
_RECHECK_CHUNK_FLOATS = 1 << 21


def _max_row_norm(A: np.ndarray) -> float:
    return float(np.sqrt(np.einsum("ij,ij->i", A, A).max())) if A.size else 0.0


def _pair_dots(
    A: np.ndarray, B: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Float64 ``<A[rows[k]], B[cols[k]]>`` for every pair ``k``, gathered in chunks."""
    out = np.empty(rows.size)
    chunk = max(1, _RECHECK_CHUNK_FLOATS // A.shape[1])
    for first in range(0, rows.size, chunk):
        r = rows[first : first + chunk]
        c = cols[first : first + chunk]
        out[first : first + chunk] = np.einsum("ij,ij->i", A[r], B[c])
    return out


def _band_halfwidth(dim: int, q_norm: float, x_norm: float, eps: float) -> float:
    """Bound on how far a float32 similarity can sit from the float64 one.

    See :func:`iter_cosine_range_masks` for the derivation.
    """
    if dim * _U32 >= 1.0:
        return np.inf  # no useful bound: every pair lands in the band
    norms = q_norm * x_norm
    gamma32 = dim * _U32 / (1.0 - dim * _U32)
    gamma64 = dim * _U64 / (1.0 - dim * _U64)
    delta = (
        (gamma32 * (1.0 + _U32) ** 2 + 2.0 * _U32 + _U32**2 + gamma64) * norms
        + 2.0 * _U64 * (1.0 + abs(eps) + norms)
        + 2.0**-149 * dim * (q_norm + x_norm + 1.0)
    )
    return delta * (1.0 + 2.0**-20)


def iter_cosine_range_masks(
    Q: np.ndarray,
    X: np.ndarray,
    eps: float,
    block_size: int = DEFAULT_BLOCK_SIZE,
    *,
    X32: np.ndarray | None = None,
    x_norm: float | None = None,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield ``(start, stop, mask)`` cosine range-query blocks of ``Q`` vs ``X``.

    ``mask[i, j]`` is the float64 decision ``max(0, 1 - <q, x>) < eps``
    for ``q = Q[start + i]`` and ``x = X[j]`` -- the decision
    :func:`iter_distance_blocks` makes -- computed mostly in float32:

    * ``G = Q32[block] @ X32.T`` in float32;
    * pairs with ``G > hi`` are neighbours, pairs with ``G <= lo`` are
      not;
    * the band ``lo < G <= hi`` is rechecked as
      ``1 - einsum(q, x) < eps`` in float64.

    **Band extraction.** The band's pairs come from one flat scan,
    ``flat = flatnonzero(band)`` and ``rows, cols = divmod(flat,
    len(X))``, in row-major order, and the rechecked neighbours are
    written back through the same flat ids into the C-contiguous mask.
    A 2-D ``nonzero(band)`` yields the same pairs but costs about 4 ns
    per block entry whatever the band's size: on one 1,024 x 10,740
    block at d=768 with 589 band pairs (2-CPU x86 container) it took
    41 ms, the flat scan and ``divmod`` 3.3 ms, against 101 ms for the
    float32 GEMM.

    **The band.** Let ``s = <q, x>`` in exact arithmetic and ``u =
    2**-24``. Rounding the inputs to float32 moves each product by at
    most ``(2u + u^2)|q_i x_i|``. A float32 dot product summed in *any*
    order (so whatever BLAS does, with or without FMA) errs by at most
    ``gamma_d = d u / (1 - d u)`` times the sum of its ``|terms|``.
    By Cauchy-Schwarz both sums are at most ``|q| |x|``, so::

        |G - s| <= (gamma_d (1 + u)^2 + 2u + u^2) |q| |x|
                 ~= (d + 2) 2**-24 |q| |x|

    plus ``2**-149 d (|q| + |x| + 1)`` for float32 underflow. The
    float64 decision itself is fuzzy by the float64 dot error
    ``gamma64_d |q| |x|`` and by the rounding of ``1 - g`` and of
    ``1 - eps`` (``2**-52 (1 + |eps| + |q| |x|)``). ``delta`` is the
    sum of these terms, enlarged by ``2**-20`` to absorb the rounding
    of ``delta`` itself, with ``|q|`` the block's largest query norm
    and ``|x|`` the largest row norm of ``X`` -- so queries that are
    not unit-normalized stay exact. ``hi`` and ``lo`` are ``1 - eps
    +- delta`` rounded outward to float32 with ``np.nextafter``. A
    pair with ``G > hi`` has ``s > 1 - eps`` by more than the float64
    fuzz, hence float64 calls it a neighbour; ``G <= lo`` likewise
    proves a non-neighbour. At d=768 on unit vectors ``delta`` is about
    4.6e-5.

    **Exactness.** The result equals the float64 blocks' decision up
    to pairs within a few ulps of ``eps``, where the recheck's
    summation order and the float64 GEMM's may disagree: the same
    contract every float64 path of this package has with every other.

    **Fallback.** A block is computed in float64 instead when its band
    would cost more to recheck than a float64 GEMM of the block
    (``_RECHECK_COST``), when a query is not finite, or when a
    norm or ``eps`` is so large that float32 could overflow.

    ``X32`` (``X`` as float32) and ``x_norm`` (``X``'s largest row
    norm) are derived from ``X`` when not given; callers that query one
    ``X`` many times pass them precomputed. Peak memory per block is a
    float32 similarity block plus two bool masks, about ``7 *
    block_size * len(X)`` bytes.
    """
    if block_size <= 0:
        raise InvalidParameterError(f"block_size must be positive; got {block_size}")
    Q = np.asarray(Q, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if X32 is None:
        X32 = X.astype(np.float32)
    if x_norm is None:
        x_norm = _max_row_norm(X)
    dim = X.shape[1]
    eps = float(eps)
    for start in range(0, Q.shape[0], block_size):
        stop = min(start + block_size, Q.shape[0])
        q = Q[start:stop]
        q_norm = _max_row_norm(q)
        limit = _MAX_FLOAT32_NORM
        if not (q_norm <= limit and x_norm <= limit and abs(eps) <= limit):
            yield start, stop, cosine_distance_matrix(q, X) < eps
            continue
        if eps > 0.0:
            delta = _band_halfwidth(dim, q_norm, x_norm, eps)
            lo = np.nextafter(np.float32(1.0 - eps - delta), np.float32(-np.inf))
            hi = np.nextafter(np.float32(1.0 - eps + delta), np.float32(np.inf))
        else:  # max(0, 1 - <q, x>) < eps never holds
            lo = hi = np.float32(np.inf)
        G = q.astype(np.float32) @ X32.T
        mask = G > hi
        band = G > lo
        band ^= mask
        n_band = np.count_nonzero(band)
        if n_band * _RECHECK_COST > G.size:
            yield start, stop, cosine_distance_matrix(q, X) < eps
            continue
        if n_band:
            flat = np.flatnonzero(band)
            rows, cols = np.divmod(flat, band.shape[1])
            inside = 1.0 - _pair_dots(q, X, rows, cols) < eps
            mask.ravel()[flat[inside]] = True
        yield start, stop, mask


def _near_top_floor(best: np.ndarray, delta: float) -> np.ndarray:
    """Per row, the float32 similarity below which no row is the nearest.

    ``best`` holds each query's largest float32 similarity ``s*`` and
    ``delta`` bounds how far a float32 similarity sits from its float64
    value (:func:`_band_halfwidth`, the range kernel's bound). The
    float64 winner ``w`` beats the float32 winner ``j``, so ``s_w >=
    s64_w - delta >= s64_j - delta >= s* - 2 delta``; a row tied with
    ``w`` in float64 distance satisfies the same bound, since the
    rounding of ``1 - s`` is part of ``delta``. Distances clamp at 0, so
    every row with ``s64 >= 1`` ties at distance 0; those have ``s >= 1
    - delta``. The floor is therefore ``min(s*, 1 + delta) - 2 delta``,
    rounded down to float32: rechecking every similarity at or above it
    as ``max(0, 1 - einsum(q, x))`` in float64 and taking the nearest
    gives the exact answer. At d=768 on unit vectors ``2 delta`` is
    about 9e-5, so the recheck is usually a query's best row alone.
    """
    floor = np.minimum(best.astype(np.float64), 1.0 + delta) - 2.0 * delta
    return np.nextafter(floor.astype(np.float32), np.float32(-np.inf))


def nearest_within(
    Q: np.ndarray,
    X: np.ndarray,
    eps: float,
    metric: str = "cosine",
    *,
    X32: np.ndarray | None = None,
    x_norm: float | None = None,
) -> np.ndarray:
    """Each query's nearest row of ``X`` within ``eps``; ``-1`` for none.

    The answer is the row at the smallest float64 distance when that
    distance is ``< eps``, with exact ties going to the smallest row
    index. This is a range query followed by :func:`nearest_candidates`
    over its answer, in one pass: if the nearest row overall is within
    ``eps`` it is also the nearest of the rows within ``eps``, and if it
    is not, no row is. Distances are decided pair by pair
    (:func:`_pair_distances`), so exact duplicates of a row tie exactly.

    **Cosine.** Per block of at most ``DEFAULT_BLOCK_SIZE`` queries, one
    float32 GEMM ``S = Q32 @ X32.T``. Each query keeps only the rows
    whose similarity is at or above both :func:`_near_top_floor` of its
    best (below it a row is not the nearest) and the range kernel's
    lower band edge ``1 - eps - delta`` rounded down to float32 (below
    it a row is not within ``eps``, see :func:`iter_cosine_range_masks`).
    The kept pairs are rechecked in float64, and the nearest of those
    within ``eps`` is the answer. Peak memory per block is the float32
    block and one bool mask, about ``5 * block * len(X)`` bytes.

    **Fallback.** Euclidean distances, and blocks that fail the float32
    preconditions of :func:`iter_cosine_range_masks` (a non-finite
    query, a norm or ``eps`` that could overflow float32), run one
    float64 GEMM block instead (squared distances for Euclidean) and
    recheck each query's rows within :func:`_float64_slack` of its
    minimum.

    ``X32`` (``X`` as float32, read by the cosine path) and ``x_norm``
    (``X``'s largest row norm) are derived from ``X`` when not given;
    callers that query one ``X`` many times pass them precomputed. This
    is ``ClusterModel.predict``'s kernel, with the cores as ``X``.
    """
    if metric not in ("cosine", "euclidean"):
        raise InvalidParameterError(
            f"metric must be 'cosine' or 'euclidean'; got {metric!r}"
        )
    Q = np.asarray(Q, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    out = np.full(Q.shape[0], -1, dtype=np.int64)
    if X.shape[0] == 0:
        return out
    eps = float(eps)
    if x_norm is None:
        x_norm = _max_row_norm(X)
    if metric == "cosine" and X32 is None:
        X32 = X.astype(np.float32)
    for start in range(0, Q.shape[0], DEFAULT_BLOCK_SIZE):
        q = Q[start : start + DEFAULT_BLOCK_SIZE]
        q_norm = _max_row_norm(q)
        limit = _MAX_FLOAT32_NORM
        fits_float32 = q_norm <= limit and x_norm <= limit and abs(eps) <= limit
        if metric == "cosine" and fits_float32:
            delta = _band_halfwidth(X.shape[1], q_norm, x_norm, eps)
            S = q.astype(np.float32) @ X32.T
            lo = np.nextafter(np.float32(1.0 - eps - delta), np.float32(-np.inf))
            near = S >= np.maximum(_near_top_floor(S.max(axis=1), delta), lo)[:, None]
        else:
            if metric == "cosine":
                D = cosine_distance_matrix(q, X)
            else:
                D = squared_euclidean_distance_matrix(q, X)
            q_norms = np.sqrt(np.einsum("ij,ij->i", q, q))[:, None]
            slack = _float64_slack(X.shape[1], q_norms, x_norm)
            near = D <= D.min(axis=1, keepdims=True) + slack
        rows, cols = np.divmod(np.flatnonzero(near), X.shape[0])
        dist = _pair_distances(q, X, rows, cols, metric)
        inside = dist < eps
        out[start : start + q.shape[0]] = _nearest_pairs(
            rows[inside], cols[inside], dist[inside], q.shape[0]
        )
    return out


def _float64_slack(
    dim: int, q_norm: float | np.ndarray, x_norm: float
) -> float | np.ndarray:
    """Bound on how far two float64 evaluations of one distance differ.

    A float64 cosine distance ``1 - <q, x>`` or squared Euclidean
    distance ``|q|^2 - 2 <q, x> + |x|^2``, summed in any order (a GEMM
    or :func:`_pair_distances`), errs from the exact value by at most
    ``gamma_{d+8} ((|q| + |x|)^2 + 1)``: ``gamma_d`` for each dot
    product, a few unit roundoffs for the additions and the final
    square root. Two evaluations differ by at most twice that, enlarged
    by ``2**-20`` for the rounding of the bound itself. A query's
    nearest row by :func:`_pair_distances` therefore sits within this
    slack of the query's GEMM minimum.
    """
    k = (dim + 8) * _U64
    return 2.0 * k / (1.0 - k) * ((q_norm + x_norm) ** 2 + 1.0) * (1.0 + 2.0**-20)


def _pair_distances(
    Q: np.ndarray, X: np.ndarray, rows: np.ndarray, cols: np.ndarray, metric: str
) -> np.ndarray:
    """Float64 distance of every pair ``(Q[rows[k]], X[cols[k]])``.

    Cosine ``max(0, 1 - <q, x>)``, Euclidean ``sqrt(max(0, |q|^2 - 2
    <q, x> + |x|^2))``, each a function of its two rows alone: a GEMM's
    entry can depend on where its column sits, so two copies of one row
    could tie inexactly there.
    """
    dots = _pair_dots(Q, X, rows, cols)
    if metric == "cosine":
        return np.maximum(0.0, 1.0 - dots)
    sq = _pair_dots(Q, Q, rows, rows) - 2.0 * dots + _pair_dots(X, X, cols, cols)
    return np.sqrt(np.maximum(sq, 0.0))


def nearest_candidates(
    Q: np.ndarray,
    X: np.ndarray,
    candidates: Sequence[np.ndarray],
    metric: str = "cosine",
    *,
    X32: np.ndarray | None = None,
    x_norm: float | None = None,
) -> np.ndarray:
    """Each query's nearest candidate row of ``X``; ``-1`` for none.

    ``candidates[i]`` lists the rows of ``X`` that ``Q[i]`` may pick
    (a range query's answer). The result is the candidate at the
    smallest float64 distance (:func:`_pair_distances`), with exact
    ties going to the smallest row index. ``Q`` is one query block.

    **Cosine.** ``S = Q32 @ X32[union].T`` in float32, one GEMM of the
    block against the *union* of its candidate rows, so a block's cost
    follows its candidates, not ``len(X)``. Only the candidates at or
    above :func:`_near_top_floor` of a row's best candidate similarity
    are rechecked in float64, and the nearest of those is the exact
    answer.

    **Fallback.** Euclidean distances, and blocks that fail the float32
    preconditions of :func:`iter_cosine_range_masks` (a non-finite
    query, a norm that could overflow float32), recheck every candidate
    in float64.

    ``X32`` (``X`` as float32) and ``x_norm`` (``X``'s largest row
    norm) are derived from ``X`` when not given; callers that query one
    ``X`` many times pass them precomputed.

    This is the nearest-core rule of the DBSCAN++ and LAF-DBSCAN++ fits
    (:func:`~repro.clustering.components.assign_to_cores`, candidates
    read off the sample join, for the points whose candidate cores lie
    in more than one cluster). ``ClusterModel.predict``, whose
    candidates would be every core within ``eps``, runs
    :func:`nearest_within` instead.
    """
    Q = np.asarray(Q, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    n = Q.shape[0]
    sizes = np.fromiter(map(len, candidates), dtype=np.intp, count=n)
    if not sizes.any():
        return np.full(n, -1, dtype=np.int64)
    rows = np.repeat(np.arange(n), sizes)
    cols = np.concatenate(candidates).astype(np.intp, copy=False)
    fast = metric == "cosine"
    if fast:
        if x_norm is None:
            x_norm = _max_row_norm(X)
        q_norm = _max_row_norm(Q)
        fast = q_norm <= _MAX_FLOAT32_NORM and x_norm <= _MAX_FLOAT32_NORM
    if fast:
        if X32 is None:
            X32 = X.astype(np.float32)
        present = np.zeros(X.shape[0], dtype=bool)
        present[cols] = True
        local = (np.cumsum(present) - 1)[cols]
        S = Q.astype(np.float32) @ X32[np.flatnonzero(present)].T
        s = S[rows, local]
        filled = sizes > 0
        first = (np.cumsum(sizes) - sizes)[filled]
        delta = _band_halfwidth(X.shape[1], q_norm, x_norm, 0.0)
        floor = _near_top_floor(np.maximum.reduceat(s, first), delta)
        keep = s >= np.repeat(floor, sizes[filled])
        rows, cols = rows[keep], cols[keep]
    dist = _pair_distances(Q, X, rows, cols, metric)
    return _nearest_pairs(rows, cols, dist, n)


def _nearest_pairs(
    rows: np.ndarray, cols: np.ndarray, dist: np.ndarray, n_rows: int
) -> np.ndarray:
    """Per-row argmin of ``(row, col, distance)`` triples grouped by row.

    Exact distance ties go to the smallest ``col``; rows without a
    triple get ``-1``.
    """
    out = np.full(n_rows, -1, dtype=np.int64)
    if not rows.size:
        return out
    first = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    nearest = np.full(n_rows, np.inf)
    nearest[rows[first]] = np.minimum.reduceat(dist, first)
    tied = np.where(dist == nearest[rows], cols, np.iinfo(np.int64).max)
    out[rows[first]] = np.minimum.reduceat(tied, first)
    return out


def nearest_in_blocks(
    blocks: Iterable[tuple[int, int, np.ndarray]], n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row argmin over ``(start, stop, D_block)`` distance blocks.

    Consumes :func:`iter_distance_blocks` output covering ``n_rows``
    query rows and returns ``(column, distance)``: each row's nearest
    column and its distance. Exact ties go to the first column. The
    nearest-core assignment of BLOCK-DBSCAN and KNN-BLOCK, DBSCAN++'s and
    LAF-DBSCAN++'s with ``assign_within_eps=False``, and
    ``ClusterModel.core_distances`` run through here; ``predict`` finds
    each query's nearest core within eps with :func:`nearest_within`, and
    the sampling hosts' assign within eps selects among the sample join's
    candidates with :func:`nearest_candidates`.
    """
    column = np.empty(n_rows, dtype=np.int64)
    distance = np.empty(n_rows, dtype=np.float64)
    for start, stop, block in blocks:
        nearest = np.argmin(block, axis=1)
        column[start:stop] = nearest
        distance[start:stop] = block[np.arange(stop - start), nearest]
    return column, distance
