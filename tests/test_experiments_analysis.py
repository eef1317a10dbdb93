"""Tests for param_select (Table 2), tradeoff (Fig 2/3), missed (Table 6),
efficiency helpers (Fig 1/4, Table 4) and ablations."""

import pytest

from repro.clustering import DBSCAN
from repro.estimators import ExactCardinalityEstimator, SamplingCardinalityEstimator
from repro.experiments.ablation import (
    classical_estimators,
    estimator_ablation,
    postprocessing_ablation,
)
from repro.experiments.efficiency import rho_vs_dbscan, speedup_summary
from repro.experiments.missed import missed_cluster_analysis
from repro.experiments.param_select import (
    GridCell,
    PAPER_EPS_TAU,
    parameter_grid,
    select_representative,
)
from repro.experiments.runner import RunRecord
from repro.experiments.tradeoff import (
    sweep_block_dbscan,
    sweep_dbscanpp,
    sweep_knn_block,
    sweep_laf_alpha,
    sweep_laf_dbscanpp,
)

from repro.testing import make_blobs_on_sphere


@pytest.fixture(scope="module")
def data():
    X, _ = make_blobs_on_sphere(35, 3, 16, spread=0.3, seed=0)
    return X


@pytest.fixture(scope="module")
def gt(data):
    return DBSCAN(eps=0.5, tau=4).fit(data).labels


class TestParamSelect:
    def test_paper_settings_constant(self):
        assert PAPER_EPS_TAU == ((0.5, 3), (0.55, 5), (0.6, 5))

    def test_grid_covers_all_combinations(self, data):
        cells = parameter_grid({"A": data}, eps_values=(0.4, 0.6), tau_values=(3, 5))
        assert len(cells) == 4
        assert {(c.eps, c.tau) for c in cells} == {
            (0.4, 3),
            (0.4, 5),
            (0.6, 3),
            (0.6, 5),
        }

    def test_cell_statistics_match_dbscan(self, data):
        cells = parameter_grid({"A": data}, eps_values=(0.5,), tau_values=(4,))
        direct = DBSCAN(eps=0.5, tau=4).fit(data)
        assert cells[0].noise_ratio == pytest.approx(direct.noise_ratio)
        assert cells[0].n_clusters == direct.n_clusters

    def test_cell_format(self):
        cell = GridCell("MS-50k", 0.5, 5, 0.83, 174)
        assert cell.as_pair() == "(0.83, 174)"

    def test_select_representative_rule(self):
        cells = [
            GridCell("A", 0.5, 3, 0.3, 30),
            GridCell("B", 0.5, 3, 0.4, 25),
            GridCell("A", 0.7, 3, 0.9, 2),
            GridCell("B", 0.7, 3, 0.95, 1),
        ]
        selected = select_representative(cells, min_datasets_satisfying=2)
        assert selected == [(0.5, 3)]


class TestTradeoffSweeps:
    def test_laf_alpha_sweep_shapes(self, data, gt):
        est = ExactCardinalityEstimator()
        points = sweep_laf_alpha(data, gt, est, 0.5, 4, alphas=(1.0, 3.0))
        assert [p.value for p in points] == [1.0, 3.0]
        assert points[0].ari == pytest.approx(1.0)  # oracle at alpha=1
        assert all(p.method == "LAF-DBSCAN" for p in points)

    def test_quality_degrades_with_alpha_oracle(self, data, gt):
        est = ExactCardinalityEstimator()
        points = sweep_laf_alpha(data, gt, est, 0.5, 4, alphas=(1.0, 100.0))
        assert points[0].ami >= points[1].ami

    def test_dbscanpp_delta_sweep(self, data, gt):
        est = ExactCardinalityEstimator()
        points = sweep_dbscanpp(data, gt, est, 0.5, 4, deltas=(0.1, 0.9))
        assert len(points) == 2
        assert all(p.method == "DBSCAN++" for p in points)

    def test_laf_dbscanpp_delta_sweep(self, data, gt):
        est = ExactCardinalityEstimator()
        points = sweep_laf_dbscanpp(data, gt, est, 0.5, 4, deltas=(0.5,))
        assert points[0].method == "LAF-DBSCAN++"

    def test_knn_block_grid_sweep(self, data, gt):
        points = sweep_knn_block(data, gt, 0.5, 4, branchings=(4,), checks=(0.1, 1.0))
        assert len(points) == 2
        assert points[0].knob.startswith("branching=4")

    def test_block_dbscan_single_point(self, data, gt):
        (point,) = sweep_block_dbscan(data, gt, 0.5, 4)
        assert (point.method, point.knob, point.value) == ("BLOCK-DBSCAN", "rnt", 10)

    def test_point_row_format(self, data, gt):
        est = ExactCardinalityEstimator()
        point = sweep_laf_alpha(data, gt, est, 0.5, 4, alphas=(1.0,))[0]
        row = point.as_row()
        assert {"method", "knob", "value", "time_s", "ARI", "AMI"} == set(row)


class TestMissedAnalysis:
    def test_oracle_misses_nothing(self, data):
        stats, run_stats = missed_cluster_analysis(
            data, ExactCardinalityEstimator(), 0.5, 4, alpha=1.0
        )
        assert stats.missed_clusters == 0
        assert run_stats["fn_detected"] == 0

    def test_aggressive_alpha_misses_clusters(self, data):
        stats, _ = missed_cluster_analysis(
            data, ExactCardinalityEstimator(), 0.5, 4, alpha=1e9
        )
        # Everything predicted stop: every cluster fully missed.
        assert stats.missed_clusters == stats.total_clusters
        assert stats.missed_point_fraction == pytest.approx(1.0)


class TestEfficiencyHelpers:
    def test_rho_vs_dbscan_rows(self, data):
        rows = rho_vs_dbscan({"A": data}, settings=((0.5, 4),))
        assert len(rows) == 1
        assert "A" in rows[0]
        assert "/" in rows[0]["A"]
        assert rows[0]["A_ratio"] > 0

    def test_speedup_summary(self):
        records = [
            RunRecord("DBSCAN", "d", 0.5, 5, 2.0, 1, 1, 3, 0.1, {}),
            RunRecord("LAF-DBSCAN", "d", 0.5, 5, 1.0, 1, 1, 3, 0.1, {}),
            RunRecord("DBSCAN++", "d", 0.5, 5, 1.5, 1, 1, 3, 0.1, {}),
            RunRecord("LAF-DBSCAN++", "d", 0.5, 5, 0.5, 1, 1, 3, 0.1, {}),
        ]
        summary = speedup_summary(records)
        assert summary["laf_dbscan_over_dbscan"] == pytest.approx(2.0)
        assert summary["laf_dbscanpp_over_dbscanpp"] == pytest.approx(3.0)

    def test_speedup_summary_missing_methods(self):
        records = [RunRecord("DBSCAN", "d", 0.5, 5, 2.0, 1, 1, 3, 0.1, {})]
        assert speedup_summary(records) == {}


class TestAblations:
    def test_classical_estimator_registry(self):
        estimators = classical_estimators()
        assert set(estimators) == {"exact-oracle", "sampling", "kde", "histogram"}

    def test_estimator_ablation_runs_all(self, data):
        learned = SamplingCardinalityEstimator(sample_size=30, seed=0).fit(data)
        records = estimator_ablation(data, data, learned, 0.5, 4, alpha=1.2)
        variants = {r.variant for r in records}
        assert "rmi-learned" in variants
        assert "exact-oracle" in variants
        assert len(records) == 5

    def test_postprocessing_ablation_pairs(self, data):
        est = SamplingCardinalityEstimator(sample_size=30, seed=0).fit(data)
        records = postprocessing_ablation(data, est, 0.5, 4, alphas=(2.0,))
        assert len(records) == 2
        with_pp = next(r for r in records if "with-postproc" in r.variant)
        without = next(r for r in records if "no-postproc" in r.variant)
        assert without.merges == 0
        assert with_pp.merges >= 0
