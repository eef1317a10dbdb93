"""Unit and property tests for the scalar/one-to-many distance kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data import make_glove_like, make_ms_like, make_nyt_like, synthetic
from repro.distances import (
    angular_distance,
    cosine_distance,
    cosine_distance_to_many,
    cosine_similarity,
    euclidean_distance,
    euclidean_distance_to_many,
    normalize_rows,
)

finite_vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(2, 12),
    elements=st.floats(-10, 10, allow_nan=False),
)


def _normalize_out_of_place(X, copy=True):
    """``normalize_rows`` as a fresh division, never in place (the oracle)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        norm = float(np.linalg.norm(X))
        return X if norm == 0.0 else X / norm
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    np.maximum(norms, np.finfo(np.float64).tiny, out=norms)
    norms[norms == 0.0] = 1.0
    return X / norms


def _unit(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    return v / norm if norm > 1e-9 else None


class TestNormalizeRows:
    def test_rows_become_unit(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 8)) * 5
        out = normalize_rows(X)
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0)

    def test_zero_row_stays_finite(self):
        X = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        out = normalize_rows(X)
        assert np.isfinite(out).all()
        assert np.allclose(out[1], [0.6, 0.8, 0.0])

    def test_1d_input(self):
        out = normalize_rows(np.array([3.0, 4.0]))
        assert np.allclose(out, [0.6, 0.8])

    def test_1d_zero_vector(self):
        out = normalize_rows(np.array([0.0, 0.0]))
        assert np.allclose(out, [0.0, 0.0])

    def test_copy_semantics(self):
        X = np.ones((2, 2))
        out = normalize_rows(X, copy=True)
        assert out is not X
        assert np.allclose(X, 1.0)  # original untouched

    def test_does_not_mutate_by_default(self):
        X = np.array([[2.0, 0.0]])
        normalize_rows(X)
        assert X[0, 0] == 2.0

    @pytest.mark.parametrize("shape", [(5, 3), (3,)])
    def test_no_copy_divides_in_place(self, shape):
        X = np.random.default_rng(1).normal(size=shape)
        expected = normalize_rows(X)
        out = normalize_rows(X, copy=False)
        assert np.shares_memory(X, out)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize(
        "X", [[[3.0, 4.0], [0.0, 2.0]], np.array([[3, 4], [0, 2]], np.float32)]
    )
    def test_no_copy_converts_other_inputs(self, X):
        out = normalize_rows(X, copy=False)
        assert out.dtype == np.float64
        assert np.array_equal(out, [[0.6, 0.8], [0.0, 1.0]])

    def test_no_copy_leaves_read_only_input(self):
        X = np.array([[2.0, 0.0]])
        X.flags.writeable = False
        assert np.array_equal(normalize_rows(X, copy=False), [[1.0, 0.0]])
        assert X[0, 0] == 2.0

    @pytest.mark.parametrize(
        "make, kwargs",
        [
            (make_ms_like, {"dim": 64}),
            (make_glove_like, {"dim": 48}),
            (make_nyt_like, {"out_dim": 32}),
        ],
    )
    def test_generators_equal_out_of_place_division(self, monkeypatch, make, kwargs):
        X, y = make(300, seed=4, **kwargs)
        monkeypatch.setattr(synthetic, "normalize_rows", _normalize_out_of_place)
        X_ref, y_ref = make(300, seed=4, **kwargs)
        assert np.array_equal(X, X_ref)
        assert np.array_equal(y, y_ref)


class TestCosineDistance:
    def test_identical_vectors(self):
        v = normalize_rows(np.array([1.0, 2.0, 3.0]))
        assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        assert cosine_distance(
            np.array([1.0, 0.0]), np.array([0.0, 1.0])
        ) == pytest.approx(1.0)

    def test_antipodal_vectors(self):
        v = np.array([1.0, 0.0])
        assert cosine_distance(v, -v) == pytest.approx(2.0)

    def test_similarity_complement(self):
        rng = np.random.default_rng(1)
        u = normalize_rows(rng.normal(size=5))
        v = normalize_rows(rng.normal(size=5))
        assert cosine_distance(u, v) == pytest.approx(1.0 - cosine_similarity(u, v))

    @given(finite_vectors, finite_vectors)
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_range(self, a, b):
        if a.shape != b.shape:
            return
        u, v = _unit(a), _unit(b)
        if u is None or v is None:
            return
        d_uv = cosine_distance(u, v)
        d_vu = cosine_distance(v, u)
        assert d_uv == pytest.approx(d_vu, abs=1e-9)
        assert -1e-9 <= d_uv <= 2.0 + 1e-9


class TestAngularDistance:
    def test_range_and_known_values(self):
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert angular_distance(e1, e1) == pytest.approx(0.0, abs=1e-7)
        assert angular_distance(e1, e2) == pytest.approx(0.5)
        assert angular_distance(e1, -e1) == pytest.approx(1.0)

    def test_clips_rounding_overflow(self):
        # Dot products marginally above 1 must not produce NaN.
        v = np.array([1.0, 1e-17])
        assert np.isfinite(angular_distance(v, v))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            u, v, w = (normalize_rows(rng.normal(size=6)) for _ in range(3))
            assert angular_distance(u, w) <= (
                angular_distance(u, v) + angular_distance(v, w) + 1e-9
            )


class TestEuclideanDistance:
    def test_known_value(self):
        assert euclidean_distance(
            np.array([0.0, 0.0]), np.array([3.0, 4.0])
        ) == pytest.approx(5.0)

    def test_matches_cosine_relation_on_unit_vectors(self):
        rng = np.random.default_rng(3)
        u = normalize_rows(rng.normal(size=8))
        v = normalize_rows(rng.normal(size=8))
        d_cos = cosine_distance(u, v)
        assert euclidean_distance(u, v) == pytest.approx(np.sqrt(2 * d_cos), abs=1e-9)


class TestToManyKernels:
    def test_cosine_to_many_matches_scalar(self, unit_vectors_small):
        q = unit_vectors_small[0]
        batch = cosine_distance_to_many(q, unit_vectors_small)
        scalar = [cosine_distance(q, x) for x in unit_vectors_small]
        assert np.allclose(batch, scalar)

    def test_euclidean_to_many_matches_scalar(self, unit_vectors_small):
        q = unit_vectors_small[5]
        batch = euclidean_distance_to_many(q, unit_vectors_small)
        scalar = [euclidean_distance(q, x) for x in unit_vectors_small]
        assert np.allclose(batch, scalar)

    def test_euclidean_to_many_nonnegative_under_rounding(self):
        X = np.ones((4, 3)) / np.sqrt(3)
        d = euclidean_distance_to_many(X[0], X)
        assert (d >= 0).all()

    def test_self_distance_zero(self, unit_vectors_small):
        d = cosine_distance_to_many(unit_vectors_small[2], unit_vectors_small)
        assert d[2] == pytest.approx(0.0, abs=1e-12)
