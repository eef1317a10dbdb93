"""Tests for the timed runner and scoring."""

import dataclasses

import numpy as np
import pytest

from repro.clustering import DBSCAN
from repro.estimators import ExactCardinalityEstimator
from repro.experiments import MethodContext, ground_truth, run_method, run_suite

from repro.testing import make_blobs_on_sphere


@pytest.fixture(scope="module")
def data():
    X, _ = make_blobs_on_sphere(30, 3, 16, spread=0.3, seed=0)
    return X


class TestRunMethod:
    def test_returns_result_and_time(self, data):
        result, elapsed = run_method(DBSCAN(eps=0.5, tau=5), data)
        assert result.labels.shape == (data.shape[0],)
        assert elapsed > 0.0


class TestGroundTruth:
    def test_is_dbscan(self, data):
        gt = ground_truth(data, 0.5, 5)
        direct = DBSCAN(eps=0.5, tau=5).fit(data)
        assert np.array_equal(gt.labels, direct.labels)


class TestRunSuite:
    def test_dbscan_scores_one_against_itself(self, data):
        ctx = MethodContext(eps=0.5, tau=5, estimator=ExactCardinalityEstimator())
        records = run_suite(data, ("DBSCAN",), ctx, dataset_name="blobs")
        assert len(records) == 1
        assert records[0].ari == pytest.approx(1.0)
        assert records[0].ami == pytest.approx(1.0)

    def test_all_methods_recorded(self, data):
        ctx = MethodContext(
            eps=0.5, tau=5, alpha=1.0, estimator=ExactCardinalityEstimator()
        )
        names = ("DBSCAN", "LAF-DBSCAN", "DBSCAN++")
        records = run_suite(data, names, ctx, dataset_name="blobs")
        assert {r.method for r in records} == set(names)
        for r in records:
            assert r.dataset == "blobs"
            assert r.eps == 0.5
            assert r.tau == 5
            assert r.elapsed_seconds > 0
            assert -1.0 <= r.ari <= 1.0

    def test_laf_with_oracle_scores_one(self, data):
        ctx = MethodContext(
            eps=0.5, tau=5, alpha=1.0, estimator=ExactCardinalityEstimator()
        )
        records = run_suite(data, ("DBSCAN", "LAF-DBSCAN"), ctx)
        laf = next(r for r in records if r.method == "LAF-DBSCAN")
        assert laf.ari == pytest.approx(1.0)

    def test_supplied_gt_labels_used(self, data):
        ctx = MethodContext(eps=0.5, tau=5, estimator=ExactCardinalityEstimator())
        fake_gt = np.zeros(data.shape[0], dtype=np.int64)
        records = run_suite(data, ("LAF-DBSCAN",), ctx, gt_labels=fake_gt)
        # Scored against the fake ground truth, not real DBSCAN output.
        gt = ground_truth(data, 0.5, 5)
        if gt.n_clusters > 1:
            assert records[0].ari != pytest.approx(1.0)

    def test_as_row_shape(self, data):
        ctx = MethodContext(eps=0.5, tau=5, estimator=ExactCardinalityEstimator())
        record = run_suite(data, ("DBSCAN",), ctx)[0]
        row = record.as_row()
        assert {"method", "dataset", "eps", "tau", "time_s", "ARI", "AMI"} <= set(row)

    def test_index_override_never_leaks_into_ground_truth(self, data):
        # A backend override must not become the reference labels the
        # suite is scored against: DBSCAN self-scores against a
        # brute-force recomputation, not its own run on the override.
        from repro import ExecutionConfig, IndexSpec
        from repro.experiments import build_method

        execution = ExecutionConfig(index=IndexSpec("grid", {"eps": 0.5}))
        ctx = MethodContext(eps=0.5, tau=5, execution=execution)
        records = run_suite(data, ("DBSCAN",), ctx)
        exact = ground_truth(data, 0.5, 5)
        approx = build_method("DBSCAN", ctx, data).fit(data)
        from repro.metrics import adjusted_rand_index

        expected_ari = adjusted_rand_index(exact.labels, approx.labels)
        assert records[0].ari == pytest.approx(expected_ari)

    @pytest.mark.parametrize("removed", ["sharding", "execution"])
    def test_execution_is_set_on_the_context_only(self, data, removed):
        # ctx.execution is the one place a suite's execution config lives.
        with pytest.raises(TypeError, match=removed):
            ctx = MethodContext(eps=0.5, tau=5)
            run_suite(data, ("DBSCAN",), ctx, **{removed: None})

    def test_sharded_suite_matches_unsharded(self, data):
        from repro import ExecutionConfig
        from repro.index import ShardingConfig

        ctx = MethodContext(eps=0.5, tau=5, estimator=ExactCardinalityEstimator())
        baseline = run_suite(data, ("DBSCAN",), ctx)[0]
        sharded_ctx = dataclasses.replace(
            ctx, execution=ExecutionConfig(sharding=ShardingConfig(n_shards=3))
        )
        sharded = run_suite(data, ("DBSCAN",), sharded_ctx)[0]
        assert sharded.n_clusters == baseline.n_clusters
        assert sharded.noise_ratio == baseline.noise_ratio
        assert sharded.ari == pytest.approx(baseline.ari)
        # Build-once accounting surfaces in both stats and the flat row.
        assert sharded.stats["shard_inner_builds"] == 3
        assert sharded.stats["shard_live_shards"] == 3
        row = sharded.as_row()
        assert row["shard_inner_builds"] == 3
        assert "shard_inner_builds" not in baseline.as_row()
