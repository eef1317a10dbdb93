"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.data import make_glove_like, make_ms_like, make_nyt_like, uniform_sphere
from repro.data.synthetic import _skewed_cluster_sizes
from repro.distances import normalize_rows
from repro.exceptions import InvalidParameterError


class TestUniformSphere:
    def test_shape_and_norm(self):
        X = uniform_sphere(100, 16, seed=0)
        assert X.shape == (100, 16)
        assert np.allclose(np.linalg.norm(X, axis=1), 1.0)

    def test_deterministic(self):
        assert np.array_equal(
            uniform_sphere(10, 4, seed=1), uniform_sphere(10, 4, seed=1)
        )

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            uniform_sphere(-1, 4)
        with pytest.raises(InvalidParameterError):
            uniform_sphere(5, 1)


@pytest.mark.parametrize(
    "generator,dim_kw,dim",
    [
        (make_ms_like, "dim", 64),
        (make_glove_like, "dim", 48),
        (make_nyt_like, "out_dim", 32),
    ],
)
class TestGeneratorsCommon:
    def test_shape_labels_and_norm(self, generator, dim_kw, dim):
        X, y = generator(300, **{dim_kw: dim}, seed=0)
        assert X.shape == (300, dim)
        assert y.shape == (300,)
        assert np.allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-9)

    def test_deterministic(self, generator, dim_kw, dim):
        X1, y1 = generator(120, **{dim_kw: dim}, seed=5)
        X2, y2 = generator(120, **{dim_kw: dim}, seed=5)
        assert np.array_equal(X1, X2)
        assert np.array_equal(y1, y2)

    def test_different_seeds_differ(self, generator, dim_kw, dim):
        X1, _ = generator(120, **{dim_kw: dim}, seed=5)
        X2, _ = generator(120, **{dim_kw: dim}, seed=6)
        assert not np.allclose(X1, X2)

    def test_noise_fraction_respected(self, generator, dim_kw, dim):
        _, y = generator(200, **{dim_kw: dim}, noise_fraction=0.25, seed=1)
        assert np.count_nonzero(y == -1) == 50

    def test_invalid_noise_fraction(self, generator, dim_kw, dim):
        with pytest.raises(InvalidParameterError):
            generator(50, **{dim_kw: dim}, noise_fraction=1.0)


class TestClusterGeometry:
    """The generators must put same-cluster points angularly closer."""

    @pytest.mark.parametrize(
        "generator,kwargs",
        [
            (make_ms_like, {"dim": 64}),
            (make_glove_like, {"dim": 48}),
        ],
    )
    def test_intra_closer_than_inter(self, generator, kwargs):
        X, y = generator(400, **kwargs, seed=2)
        rng = np.random.default_rng(0)
        intra, inter = [], []
        for _ in range(600):
            i, j = rng.integers(0, X.shape[0], 2)
            if y[i] == -1 or y[j] == -1 or i == j:
                continue
            d = 1.0 - float(X[i] @ X[j])
            (intra if y[i] == y[j] else inter).append(d)
        assert np.mean(intra) < np.mean(inter)

    def test_ms_like_cluster_count(self):
        _, y = make_ms_like(500, dim=64, n_macro=4, micro_per_macro=3, seed=3)
        labels = set(y.tolist()) - {-1}
        assert len(labels) == 12  # 4 macro x 3 micro

    def test_glove_like_zipf_sizes(self):
        _, y = make_glove_like(600, dim=32, n_clusters=10, seed=4, noise_fraction=0.0)
        _, counts = np.unique(y, return_counts=True)
        # Zipf skew: largest cluster much bigger than smallest.
        assert counts.max() > 3 * counts.min()

    def test_nyt_like_dominant_topic_labels(self):
        _, y = make_nyt_like(200, out_dim=32, n_topics=6, seed=5)
        labels = set(y.tolist()) - {-1}
        assert labels <= set(range(6))


# ----------------------------------------------------------------------
# Oracle: the stacked formulation the in-place mixture builder replaced
# ----------------------------------------------------------------------


def _stacked_points(rng, n, global_dir, center, gw, cw, noise_scale, hf, hb):
    """One cluster as its own array: global + cluster + scaled noise."""
    scales = np.full(n, noise_scale)
    halo = rng.uniform(size=n) < hf
    scales[halo] *= hb
    noise = uniform_sphere(n, global_dir.size, rng) * scales[:, None]
    raw = gw * global_dir + cw * center + noise
    return normalize_rows(raw, copy=False)


def _stacked_mixture(
    rng,
    n,
    n_noise,
    global_dir,
    centers,
    zipf_s,
    spread_range,
    background_spread,
    gw,
    cw,
    hf,
    hb,
):
    sizes = _skewed_cluster_sizes(n - n_noise, len(centers), rng, zipf_s)
    lo, hi = spread_range
    spreads = np.exp(rng.uniform(np.log(lo), np.log(hi), size=len(centers)))
    parts, labels = [], []
    for cluster_id, (center, size, spread) in enumerate(zip(centers, sizes, spreads)):
        parts.append(
            _stacked_points(
                rng, int(size), global_dir, center, gw, cw, float(spread), hf, hb
            )
        )
        labels.append(np.full(int(size), cluster_id, dtype=np.int64))
    if n_noise:
        dim = global_dir.size
        background = gw * global_dir + background_spread * uniform_sphere(
            n_noise, dim, rng
        )
        parts.append(normalize_rows(background, copy=False))
        labels.append(np.full(n_noise, -1, dtype=np.int64))
    X = np.vstack(parts)
    y = np.concatenate(labels)
    order = rng.permutation(n)
    return X[order], y[order]


def _stacked_ms_like(n, dim, seed):
    """``make_ms_like`` at its defaults, stacking per-cluster arrays."""
    rng = np.random.default_rng(seed)
    n_noise = int(round(n * 0.12))
    global_dir = uniform_sphere(1, dim, rng)[0]
    macro_dirs = uniform_sphere(6, dim, rng)
    micro_centers = np.vstack(
        [
            normalize_rows(macro[None, :] + 1.6 * uniform_sphere(8, dim, rng))
            for macro in macro_dirs
        ]
    )
    return _stacked_mixture(
        rng,
        n,
        n_noise,
        global_dir,
        micro_centers,
        1.1,
        (0.38, 0.85),
        1.15,
        0.45,
        0.65,
        0.22,
        2.2,
    )


def _stacked_glove_like(n, dim, seed):
    """``make_glove_like`` at its defaults, stacking per-cluster arrays."""
    rng = np.random.default_rng(seed)
    n_noise = int(round(n * 0.1))
    global_dir = uniform_sphere(1, dim, rng)[0]
    centers = uniform_sphere(25, dim, rng)
    return _stacked_mixture(
        rng,
        n,
        n_noise,
        global_dir,
        centers,
        1.25,
        (0.4, 0.95),
        1.2,
        0.35,
        0.8,
        0.15,
        2.0,
    )


@pytest.mark.parametrize(
    "generator,oracle",
    [(make_ms_like, _stacked_ms_like), (make_glove_like, _stacked_glove_like)],
    ids=["ms", "glove"],
)
@pytest.mark.parametrize("n,dim", [(300, 64), (2000, 96)])
@pytest.mark.parametrize("seed", [0, 7])
def test_in_place_mixture_equals_stacked_oracle(generator, oracle, n, dim, seed):
    X, y = generator(n, dim=dim, seed=seed)
    X_ref, y_ref = oracle(n, dim, seed)
    assert np.array_equal(X, X_ref)
    assert np.array_equal(y, y_ref)
