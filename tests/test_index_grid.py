"""Tests for the rho-approximate grid index, especially the sandwich."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distances import normalize_rows
from repro.exceptions import InvalidParameterError, NotFittedError
from repro.index import BruteForceIndex, GridIndex


def random_unit(n, dim, seed):
    rng = np.random.default_rng(seed)
    return normalize_rows(rng.normal(size=(n, dim)))


@pytest.fixture(scope="module")
def grid_and_data():
    X = random_unit(150, 24, seed=1)
    return GridIndex(eps=0.5, rho=0.5).build(X), X


class TestConstruction:
    def test_invalid_params(self):
        with pytest.raises(InvalidParameterError):
            GridIndex(eps=0.0)
        with pytest.raises(InvalidParameterError):
            GridIndex(eps=2.5)
        with pytest.raises(InvalidParameterError):
            GridIndex(eps=0.5, rho=0.0)

    def test_unbuilt_raises(self):
        with pytest.raises(NotFittedError):
            GridIndex(eps=0.5).batch_approx_range_count(np.zeros((1, 3)))

    def test_cells_partition_points(self, grid_and_data):
        grid, X = grid_and_data
        all_points = np.concatenate(grid.cell_points)
        assert sorted(all_points.tolist()) == list(range(X.shape[0]))

    def test_cell_sizes_sum(self, grid_and_data):
        grid, X = grid_and_data
        assert grid.cell_sizes().sum() == X.shape[0]

    def test_high_dim_one_point_per_cell(self):
        # In high dimensions the cell side is tiny: the degenerate regime
        # the paper blames for rho-approx's slowness.
        X = random_unit(80, 256, seed=2)
        grid = GridIndex(eps=0.5, rho=1.0).build(X)
        assert grid.n_cells == 80

    def test_cell_members_within_diagonal(self, grid_and_data):
        # All points sharing a cell are mutually within eps (cosine).
        grid, X = grid_and_data
        for members in grid.cell_points:
            if members.size < 2:
                continue
            pts = X[members]
            d = 1.0 - pts @ pts.T
            assert d.max() < 0.5 + 1e-9


class TestSandwichGuarantee:
    @pytest.mark.parametrize("rho", [0.1, 0.5, 1.0])
    def test_count_sandwich(self, rho):
        X = random_unit(120, 16, seed=4)
        eps = 0.45
        grid = GridIndex(eps=eps, rho=rho).build(X)
        brute = BruteForceIndex().build(X)
        eps_outer = min(2.0, ((1 + rho) ** 2) * eps)  # euclid scaling -> cosine
        queries = np.arange(0, 120, 9)
        approx = grid.batch_approx_range_count(X[queries])
        for qi, count in zip(queries, approx):
            inner = brute.range_count(X[qi], eps)
            outer = brute.range_count(X[qi], eps_outer)
            assert inner <= count <= outer, (qi, inner, count, outer)

    @given(st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_property_sandwich(self, seed):
        X = random_unit(60, 8, seed=seed)
        eps, rho = 0.4, 0.6
        grid = GridIndex(eps=eps, rho=rho).build(X)
        brute = BruteForceIndex().build(X)
        eps_outer = min(2.0, ((1 + rho) ** 2) * eps)
        q = X[seed % 60]
        inner = brute.range_count(q, eps)
        outer = brute.range_count(q, eps_outer)
        (approx,) = grid.batch_approx_range_count(q)
        assert inner <= approx <= outer


class TestCellsWithin:
    def test_cells_within_includes_close_cells(self, grid_and_data):
        grid, X = grid_and_data
        # A cell is always within any positive distance of itself.
        nearby = grid.cells_within(0, 0.1)
        assert 0 in nearby.tolist()
