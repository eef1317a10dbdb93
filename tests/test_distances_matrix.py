"""Tests for batched/blockwise distance matrices."""

import math

import numpy as np
import pytest

from repro.distances import (
    cosine_distance,
    cosine_distance_matrix,
    euclidean_distance_matrix,
    iter_cosine_range_masks,
    iter_distance_blocks,
    nearest_in_blocks,
    normalize_rows,
)
from repro.distances import get_metric, matrix
from repro.exceptions import InvalidParameterError


@pytest.fixture(scope="module")
def matrices():
    rng = np.random.default_rng(5)
    Q = normalize_rows(rng.normal(size=(17, 8)))
    X = normalize_rows(rng.normal(size=(29, 8)))
    return Q, X


class TestCosineDistanceMatrix:
    def test_shape(self, matrices):
        Q, X = matrices
        assert cosine_distance_matrix(Q, X).shape == (17, 29)

    def test_entries_match_scalar(self, matrices):
        Q, X = matrices
        D = cosine_distance_matrix(Q, X)
        for i in (0, 7, 16):
            for j in (0, 13, 28):
                assert D[i, j] == pytest.approx(cosine_distance(Q[i], X[j]), abs=1e-12)

    def test_self_matrix_zero_diagonal(self, matrices):
        _, X = matrices
        D = cosine_distance_matrix(X, X)
        assert np.allclose(np.diag(D), 0.0, atol=1e-12)
        assert np.allclose(D, D.T, atol=1e-12)


class TestEuclideanDistanceMatrix:
    def test_matches_norm(self, matrices):
        Q, X = matrices
        D = euclidean_distance_matrix(Q, X)
        brute = np.linalg.norm(Q[:, None, :] - X[None, :, :], axis=2)
        assert np.allclose(D, brute, atol=1e-9)

    def test_no_negative_under_rounding(self):
        X = np.ones((5, 4)) / 2.0
        D = euclidean_distance_matrix(X, X)
        assert (D >= 0).all()


class TestIterDistanceBlocks:
    def test_concatenation_equals_full_matrix(self, matrices):
        Q, X = matrices
        full = cosine_distance_matrix(Q, X)
        parts = []
        for start, stop, block in iter_distance_blocks(Q, X, block_size=5):
            assert block.shape == (stop - start, X.shape[0])
            parts.append(block)
        assert np.allclose(np.vstack(parts), full)

    def test_block_boundaries_cover_exactly(self, matrices):
        Q, X = matrices
        spans = [(s, e) for s, e, _ in iter_distance_blocks(Q, X, block_size=4)]
        assert spans[0][0] == 0
        assert spans[-1][1] == Q.shape[0]
        for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
            assert prev_end == next_start

    def test_single_block_when_large(self, matrices):
        Q, X = matrices
        blocks = list(iter_distance_blocks(Q, X, block_size=1000))
        assert len(blocks) == 1

    def test_invalid_block_size(self, matrices):
        Q, X = matrices
        with pytest.raises(InvalidParameterError):
            list(iter_distance_blocks(Q, X, block_size=0))


class TestNearestInBlocks:
    @pytest.mark.parametrize("block_size", [1, 4, 1000])
    def test_matches_full_matrix_argmin(self, matrices, block_size):
        Q, X = matrices
        # The blocks themselves as reference: a GEMV and a GEMM may
        # round differently in the last bit.
        full = np.vstack([b for _, _, b in iter_distance_blocks(Q, X, block_size)])
        column, distance = nearest_in_blocks(
            iter_distance_blocks(Q, X, block_size=block_size), Q.shape[0]
        )
        assert np.array_equal(column, np.argmin(full, axis=1))
        assert np.array_equal(distance, full.min(axis=1))

    def test_ties_go_to_the_first_column(self):
        X = normalize_rows(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
        column, distance = nearest_in_blocks(iter_distance_blocks(X, X), 3)
        assert column.tolist() == [0, 1, 0]
        assert np.array_equal(distance, np.zeros(3))


def _band_edge_case(dim, eps, q_norm, n_fill=0, seed=0):
    """A query of norm ``q_norm`` and unit rows at similarities around ``1 - eps``.

    Rows sit at ``1 - eps + k * delta / 4`` (k = -8..8, with ``delta =
    (dim + 2) 2**-24 q_norm`` the float32 error bound), which straddle
    both band edges, and at offsets of 1e-10..1e-6, far inside the
    band. ``n_fill`` more rows at least 0.01 from the threshold dilute
    the band.
    """
    rng = np.random.default_rng(seed)
    q_hat = normalize_rows(rng.normal(size=(1, dim)))[0]
    delta = (dim + 2) * 2.0**-24 * q_norm
    offsets = [k * delta / 4 for k in range(-8, 9)]
    offsets += [sign * o for o in (1e-10, 1e-8, 1e-6) for sign in (-1, 1)]
    fill = rng.uniform(-q_norm, q_norm, size=2 * n_fill)
    fill = fill[np.abs(fill - (1.0 - eps)) >= 0.01][:n_fill]
    a = np.concatenate([1.0 - eps + np.array(offsets), fill]) / q_norm
    a = a[np.abs(a) <= 1.0]  # the rest are out of reach of a unit row
    V = rng.normal(size=(a.size, dim))
    V = normalize_rows(V - np.outer(V @ q_hat, q_hat))
    rows = a[:, None] * q_hat + np.sqrt(1.0 - a * a)[:, None] * V
    return q_norm * q_hat[None, :], rows


def _exact_mask(Q, X, eps):
    """``(decided, exact)``: ``1 - <q, x> < eps`` decided on fsum sums.

    Pairs within 1e-12 of ``eps`` are left undecided. The float64 GEMM
    errs by far less than 1e-9, so only pairs within that are summed.
    """
    D = 1.0 - Q @ X.T
    exact = D < eps
    decided = np.ones(D.shape, dtype=bool)
    for i, j in zip(*np.nonzero(np.abs(D - eps) <= 1e-9)):
        d = 1.0 - math.fsum(Q[i] * X[j])
        exact[i, j] = d < eps
        decided[i, j] = abs(d - eps) > 1e-12
    return decided, exact


def _assert_masks_exact(Q, X, eps, block_size=1024):
    decided, exact = _exact_mask(Q, X, eps)
    mask = np.zeros(exact.shape, dtype=bool)
    for start, stop, block in iter_cosine_range_masks(Q, X, eps, block_size):
        assert block.dtype == bool and block.shape == (stop - start, X.shape[0])
        mask[start:stop] = block
    assert decided.sum() > 0.9 * decided.size
    assert np.array_equal(mask[decided], exact[decided])


BAND_DIMS = [3, 64, 768]
BAND_EPS = [0.05, 0.55, 1.0, 1.95, 2.0]


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the kernel's float64 fallback blocks."""
    calls = []
    original = matrix.cosine_distance_matrix

    def counting(Q, X):
        calls.append(Q.shape[0])
        return original(Q, X)

    monkeypatch.setattr(matrix, "cosine_distance_matrix", counting)
    return calls


class TestCosineRangeMasks:
    @pytest.mark.parametrize("eps", BAND_EPS)
    @pytest.mark.parametrize("dim", BAND_DIMS)
    def test_band_edges_match_exact_oracle(self, dim, eps, fallbacks):
        # Diluted so the band is rechecked pair by pair, not by fallback.
        Q, X = _band_edge_case(dim, eps, 1.0, n_fill=4000)
        _assert_masks_exact(Q, X, eps)
        assert fallbacks == []

    @pytest.mark.parametrize("eps", BAND_EPS)
    @pytest.mark.parametrize("dim", BAND_DIMS)
    def test_dense_band_falls_back_to_float64(self, dim, eps, fallbacks):
        # Nearly every pair is in the band: recomputing the block in
        # float64 is cheaper than rechecking it.
        Q, X = _band_edge_case(dim, eps, 1.0)
        _assert_masks_exact(Q, X, eps)
        assert fallbacks == [1]

    @pytest.mark.parametrize("q_norm", [0.25, 3.0])
    @pytest.mark.parametrize("dim", BAND_DIMS)
    def test_non_unit_queries(self, dim, q_norm, fallbacks):
        # The band scales with the block's largest query norm.
        for eps in BAND_EPS:
            Q, X = _band_edge_case(dim, eps, q_norm, n_fill=4000)
            _assert_masks_exact(Q, X, eps)
        assert fallbacks == []

    @pytest.mark.parametrize("block_size", [1, 3, 7])
    @pytest.mark.parametrize("eps", [0.8, 1.2])
    @pytest.mark.parametrize("dim", BAND_DIMS)
    def test_multi_row_blocks_split_the_band_by_row(
        self, dim, eps, block_size, fallbacks
    ):
        # Seven band-edge queries in different directions and norms,
        # stacked against all of their rows (7 x ~10,700), so every
        # block but the single-row ones holds band pairs on several rows.
        # (At eps=1 the threshold sits where most random rows are, and
        # the band of a block with a norm-3 query falls back to float64.)
        cases = [
            _band_edge_case(dim, eps, (0.25, 1.0, 3.0)[k % 3], 1500, seed=k)
            for k in range(7)
        ]
        Q = np.vstack([q for q, _ in cases])
        X = np.vstack([x for _, x in cases])
        near = np.abs(1.0 - Q @ X.T - eps) < 1e-3
        assert near.any(axis=1).all() and X.shape[0] != Q.shape[0]
        _assert_masks_exact(Q, X, eps, block_size)
        assert fallbacks == []

    def test_matches_float64_blocks(self, matrices):
        Q, X = matrices
        for eps in (0.0, 0.3, 1.0, 2.0, 2.5):
            masks = [m for _, _, m in iter_cosine_range_masks(Q, X, eps, 5)]
            blocks = [b < eps for _, _, b in iter_distance_blocks(Q, X, 5)]
            assert np.array_equal(np.vstack(masks), np.vstack(blocks))

    def test_non_finite_query_rows_fall_back(self, matrices, fallbacks):
        Q, X = matrices
        Q = Q.copy()
        Q[1] = np.nan
        masks = np.vstack([m for _, _, m in iter_cosine_range_masks(Q, X, 0.8, 4)])
        assert not masks[1].any()
        assert np.array_equal(masks, cosine_distance_matrix(Q, X) < 0.8)
        assert fallbacks == [4]

    def test_empty_batch(self, matrices):
        _, X = matrices
        assert list(iter_cosine_range_masks(np.empty((0, X.shape[1])), X, 0.5)) == []

    def test_invalid_block_size(self, matrices):
        Q, X = matrices
        with pytest.raises(InvalidParameterError):
            list(iter_cosine_range_masks(Q, X, 0.5, block_size=0))


def _nearest_candidates_loop(Q, X, candidates, metric="cosine"):
    """The per-row float64 select ``ClusterModel.predict`` ran before the kernel."""
    distance_to_many = get_metric(metric).distance_to_many
    out = np.full(len(Q), -1, dtype=np.int64)
    for i, row in enumerate(candidates):
        if row.size == 0:
            continue
        d = distance_to_many(Q[i], X[row])
        out[i] = int(row[d == d.min()].min())
    return out


def _random_candidates(rng, n_rows, pool, max_size):
    """Per-row candidate arrays drawn from ``pool``, some empty or single."""
    sizes = rng.integers(0, max_size + 1, size=n_rows)
    sizes[: min(2, n_rows)] = [0, 1][: min(2, n_rows)]
    return [rng.choice(pool, size=min(s, pool.size), replace=False) for s in sizes]


def _planted_near_ties(dim, n_rows, n_fill, seed=0):
    """Queries whose candidates sit 1-4 float32 ulps around the best.

    Per query ``q``: nine rows at similarity ``c + k ulp32(c)``, k =
    -4..4, each ``c_k q + sqrt(1 - c_k^2) v`` with a random unit ``v``
    orthogonal to ``q``, so float32 rounding (about ``sqrt(d) 2**-24``)
    scrambles their order and only the float64 recheck can rank them;
    plus ``n_fill`` rows at similarity 0.46-0.55 that dilute the band.
    Row ``q``'s winner (``k = 4``) is listed in ``winners``.
    """
    rng = np.random.default_rng(seed)
    Q = normalize_rows(rng.normal(size=(n_rows, dim)))
    blocks, candidates, winners = [], [], []
    for i, q in enumerate(Q):
        c = rng.uniform(0.6, 0.9)
        ulp = float(np.spacing(np.float32(c)))
        sims = np.concatenate(
            [c + ulp * np.arange(-4, 5), rng.uniform(0.46, 0.55, size=n_fill)]
        )
        V = rng.normal(size=(sims.size, dim))
        V = normalize_rows(V - np.outer(V @ q, q))
        rows = sims[:, None] * q + np.sqrt(1.0 - sims * sims)[:, None] * V
        first = sum(b.shape[0] for b in blocks)
        blocks.append(rows)
        candidates.append(rng.permutation(first + np.arange(sims.size)))
        winners.append(first + 8)
    return Q, np.vstack(blocks), candidates, np.array(winners)


class TestNearestCandidates:
    @pytest.mark.parametrize("n_rows", [1, 7, 64])
    @pytest.mark.parametrize("pool_size", [3, 40, 400])
    def test_matches_per_row_loop(self, n_rows, pool_size, fallbacks):
        rng = np.random.default_rng(n_rows * 1000 + pool_size)
        X = normalize_rows(rng.normal(size=(400, 32)))
        Q = normalize_rows(rng.normal(size=(n_rows, 32)))
        pool = rng.choice(400, size=pool_size, replace=False)
        candidates = _random_candidates(rng, n_rows, pool, 60)
        got = matrix.nearest_candidates(Q, X, candidates)
        assert np.array_equal(got, _nearest_candidates_loop(Q, X, candidates))
        assert fallbacks == []

    @pytest.mark.parametrize("dim", [64, 768])
    def test_planted_near_ties_are_decided_in_float64(self, dim):
        Q, X, candidates, winners = _planted_near_ties(dim, 48, n_fill=30)
        got = matrix.nearest_candidates(Q, X, candidates)
        assert np.array_equal(got, winners)
        assert np.array_equal(got, _nearest_candidates_loop(Q, X, candidates))

    def test_exact_duplicates_go_to_the_smallest_index(self):
        Q, X, candidates, winners = _planted_near_ties(128, 16, n_fill=10, seed=3)
        # Copies of every winner, appended after it: both are candidates.
        copies = X.shape[0] + np.arange(winners.size)
        X = np.vstack([X, X[winners]])
        candidates = [np.r_[copy, row] for copy, row in zip(copies, candidates)]
        got = matrix.nearest_candidates(Q, X, candidates)
        assert np.array_equal(got, winners)
        # ...and when the copy comes first in X, the copy wins.
        X = np.vstack([X[copies], X[: copies[0]]])
        moved = [
            np.where(row >= copies[0], row - copies[0], row + winners.size)
            for row in candidates
        ]
        got = matrix.nearest_candidates(Q, X, moved)
        assert np.array_equal(got, np.arange(winners.size))

    def test_distance_clamped_at_zero_ties(self):
        # A query of norm 1 + 9e-5 (accepted as unit) has similarity
        # above 1 with two rows: both are at distance 0, so the smaller
        # index wins although its float32 similarity is 5e-5 lower --
        # far outside 2 delta at d=8.
        q = np.zeros((1, 8))
        q[0, 0] = 1.0 + 9e-5
        tilted = normalize_rows(np.array([[1.0, 1e-2] + [0.0] * 6]))
        X = np.vstack([tilted, np.eye(8)[:1]])
        assert 1.0 < (q @ X.T).min()
        candidates = [np.array([1, 0])]
        got = matrix.nearest_candidates(q, X, candidates)
        expected = _nearest_candidates_loop(q, X, candidates)
        assert got.tolist() == expected.tolist() == [0]

    def test_empty_and_single_candidate_rows(self, matrices):
        Q, X = matrices
        candidates = [np.array([], dtype=np.int64)] * len(Q)
        assert matrix.nearest_candidates(Q, X, candidates).tolist() == [-1] * len(Q)
        singles = [np.array([i % X.shape[0]]) for i in range(len(Q))]
        got = matrix.nearest_candidates(Q, X, singles)
        assert got.tolist() == [i % X.shape[0] for i in range(len(Q))]
        assert matrix.nearest_candidates(Q[:0], X, []).shape == (0,)

    def test_euclidean_matches_per_row_loop(self):
        rng = np.random.default_rng(11)
        X = rng.normal(scale=5.0, size=(300, 6))
        X = np.vstack([X, X[:20]])  # exact duplicates at higher indices
        Q = rng.normal(scale=5.0, size=(50, 6))
        candidates = _random_candidates(rng, 50, np.arange(320), 80)
        candidates[5] = np.array([310, 10, 200])  # 310 duplicates 10
        got = matrix.nearest_candidates(Q, X, candidates, "euclidean")
        expected = _nearest_candidates_loop(Q, X, candidates, "euclidean")
        assert np.array_equal(got, expected)
        assert got[5] in (10, 200)

    def test_huge_norm_block_falls_back_to_float64(self, matrices, monkeypatch):
        Q, X = matrices
        Q = Q.copy()
        Q[2] *= 2.0**61
        rng = np.random.default_rng(2)
        candidates = _random_candidates(rng, len(Q), np.arange(X.shape[0]), 10)
        float32_blocks = []
        monkeypatch.setattr(matrix, "_near_top_floor", float32_blocks.append)
        got = matrix.nearest_candidates(Q, X, candidates)
        assert np.array_equal(got, _nearest_candidates_loop(Q, X, candidates))
        assert float32_blocks == []


def _nearest_within_loop(Q, X, eps, metric="cosine"):
    """Per query, the float64 nearest row when it is within ``eps``."""
    distance_to_many = get_metric(metric).distance_to_many
    out = np.full(len(Q), -1, dtype=np.int64)
    for i, q in enumerate(Q):
        d = distance_to_many(q, X)
        if d.min() < eps:
            out[i] = int(np.flatnonzero(d == d.min()).min())
    return out


class TestNearestWithin:
    @pytest.mark.parametrize("eps", [0.3, 0.6, 1.0])
    @pytest.mark.parametrize("n_rows", [1, 7, 64])
    def test_matches_per_row_loop(self, n_rows, eps, fallbacks):
        rng = np.random.default_rng(n_rows)
        X = normalize_rows(rng.normal(size=(400, 32)))
        Q = normalize_rows(X[:n_rows] + 0.2 * rng.normal(size=(n_rows, 32)))
        got = matrix.nearest_within(Q, X, eps)
        expected = _nearest_within_loop(Q, X, eps)
        assert np.array_equal(got, expected)
        assert (expected >= 0).any() or n_rows == 1
        assert fallbacks == []

    @pytest.mark.parametrize("dim", [64, 768])
    def test_planted_near_ties_are_decided_in_float64(self, dim):
        Q, X, _, winners = _planted_near_ties(dim, 48, n_fill=30)
        got = matrix.nearest_within(Q, X, 0.5)
        assert np.array_equal(got, winners)

    @pytest.mark.parametrize("eps", [0.05, 0.55, 1.0, 1.5])
    @pytest.mark.parametrize("dim", BAND_DIMS)
    def test_eps_boundary_matches_exact_oracle(self, dim, eps, fallbacks):
        # One band-edge row at a time, so it is the query's nearest and
        # only the eps decision is left; at least 256 farther rows keep
        # the block on the float32 path.
        Q, X = _band_edge_case(dim, eps, 1.0, n_fill=2000)
        sims = (Q @ X.T)[0]
        far = X[sims < 1.0 - eps - 0.005]
        edge = X[np.abs(sims - (1.0 - eps)) < 0.005]
        assert far.shape[0] >= matrix._RECHECK_COST and edge.shape[0] > 10
        decided, exact = _exact_mask(Q, edge, eps)
        for j in np.flatnonzero(decided[0]):
            got = matrix.nearest_within(Q, np.vstack([edge[j : j + 1], far]), eps)
            assert got.tolist() == [0 if exact[0, j] else -1]
        assert fallbacks == []

    def test_exact_duplicates_go_to_the_smallest_index(self):
        Q, X, _, winners = _planted_near_ties(128, 16, n_fill=10, seed=3)
        got = matrix.nearest_within(Q, np.vstack([X, X[winners]]), 0.5)
        assert np.array_equal(got, winners)
        got = matrix.nearest_within(Q, np.vstack([X[winners], X]), 0.5)
        assert np.array_equal(got, np.arange(winners.size))

    def test_distance_clamped_at_zero_ties(self):
        # Both rows sit at similarity above 1, so at distance 0: the
        # smaller index wins although its float32 similarity is lower.
        q = np.zeros((1, 8))
        q[0, 0] = 1.0 + 9e-5
        tilted = normalize_rows(np.array([[1.0, 1e-2] + [0.0] * 6]))
        X = np.vstack([tilted, np.eye(8)[:1]])
        assert 1.0 < (q @ X.T).min()
        assert matrix.nearest_within(q, X, 0.1).tolist() == [0]

    def test_rows_without_a_row_within_eps_are_minus_one(self, matrices):
        Q, X = matrices
        assert matrix.nearest_within(Q, X, 0.0).tolist() == [-1] * len(Q)
        assert matrix.nearest_within(Q[:1], X, 1e-12).tolist() == [-1]
        assert matrix.nearest_within(Q, X[:0], 0.5).tolist() == [-1] * len(Q)
        assert matrix.nearest_within(Q[:0], X, 0.5).shape == (0,)

    def test_blocks_of_default_size(self, monkeypatch):
        monkeypatch.setattr(matrix, "DEFAULT_BLOCK_SIZE", 3)
        rng = np.random.default_rng(4)
        X = normalize_rows(rng.normal(size=(50, 8)))
        Q = normalize_rows(X[:10] + 0.3 * rng.normal(size=(10, 8)))
        got = matrix.nearest_within(Q, X, 0.4)
        assert np.array_equal(got, _nearest_within_loop(Q, X, 0.4))

    def test_euclidean_matches_per_row_loop(self):
        rng = np.random.default_rng(11)
        X = rng.normal(scale=5.0, size=(300, 6))
        X = np.vstack([X, X[:20]])  # exact duplicates at higher indices
        Q = np.vstack([rng.normal(scale=5.0, size=(50, 6)), X[305:310]])
        got = matrix.nearest_within(Q, X, 4.0, "euclidean")
        expected = _nearest_within_loop(Q, X, 4.0, "euclidean")
        assert np.array_equal(got, expected)
        assert got[-5:].tolist() == [5, 6, 7, 8, 9]

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_a_row_at_exactly_eps_is_not_within(self, metric):
        rng = np.random.default_rng(6)
        X = normalize_rows(rng.normal(size=(400, 16)))
        q = normalize_rows(X[:1] + 0.1 * rng.normal(size=(1, 16)))
        d = matrix._pair_distances(q, X, np.array([0]), np.array([0]), metric)[0]
        assert matrix.nearest_within(q, X[:1], d, metric).tolist() == [-1]
        assert matrix.nearest_within(q, X[:1], np.nextafter(d, 3.0), metric) == [0]

    @pytest.mark.parametrize("dim", [64, 768])
    def test_euclidean_near_ties_are_decided_pair_by_pair(self, dim):
        # Rows 1-4 ulps apart in similarity, hence in distance: the GEMM
        # may order them differently from the pair distances, and the
        # pair distances decide.
        Q, X, _, _ = _planted_near_ties(dim, 48, n_fill=30)
        rows = np.repeat(np.arange(len(Q)), len(X))
        cols = np.tile(np.arange(len(X)), len(Q))
        dist = matrix._pair_distances(Q, X, rows, cols, "euclidean")
        expected = matrix._nearest_pairs(rows, cols, dist, len(Q))
        assert np.array_equal(matrix.nearest_within(Q, X, 1.5, "euclidean"), expected)

    @pytest.mark.parametrize("dim", [8, 33, 64])
    def test_euclidean_duplicates_go_to_the_first_copy(self, dim):
        # A GEMM entry can depend on where its column sits, so copies of
        # one row may differ there in the last bits; the pair recheck
        # still picks the first copy.
        rng = np.random.default_rng(dim)
        X = normalize_rows(rng.normal(size=(120, dim)))
        X = np.vstack([X, X[rng.integers(120, size=60)]])
        Q = normalize_rows(rng.normal(size=(200, dim)))
        Q = np.vstack([Q, X[rng.integers(180, size=50)]])
        # One query per call too: a one-row block is a matrix-vector
        # product, whose entries follow each row's memory alignment.
        got = matrix.nearest_within(Q, X, 1.2, "euclidean")
        singles = [matrix.nearest_within(q[None], X, 1.2, "euclidean") for q in Q]
        assert np.array_equal(np.concatenate(singles), got)
        found = got[got >= 0]
        first = [np.flatnonzero((X == X[j]).all(axis=1))[0] for j in found]
        assert found.size > 100 and np.array_equal(found, first)

    def test_huge_norm_and_non_finite_blocks_fall_back(self, matrices, fallbacks):
        Q, X = matrices
        Q = Q.copy()
        Q[2] *= 2.0**61
        got = matrix.nearest_within(Q, X, 0.8)
        assert np.array_equal(got, _nearest_within_loop(Q, X, 0.8))
        Q[2] = np.nan
        got = matrix.nearest_within(Q, X, 0.8)
        assert got[2] == -1
        rest = np.delete(Q, 2, axis=0)
        assert np.array_equal(np.delete(got, 2), _nearest_within_loop(rest, X, 0.8))
        assert fallbacks == [len(Q), len(Q)]


def test_nearest_pairs_without_triples_is_all_minus_one():
    empty = np.empty(0, dtype=np.int64)
    got = matrix._nearest_pairs(empty, empty, np.empty(0), 3)
    assert got.tolist() == [-1, -1, -1]
