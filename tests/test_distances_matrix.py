"""Tests for batched/blockwise distance matrices."""

import numpy as np
import pytest

from repro.distances import (
    cosine_distance,
    cosine_distance_matrix,
    euclidean_distance_matrix,
    iter_distance_blocks,
    nearest_in_blocks,
    normalize_rows,
    pairwise_cosine_within,
)
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
        D = pairwise_cosine_within(X)
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
