"""Figure 3: speed-quality trade-off on Glove-150k (eps=0.5, tau=3).

Same sweeps as Figure 2 on the easier 200-d word-embedding surrogate.
Paper shape: the LAF methods keep high AMI across much of the knob
range and dominate the high-quality region of the curve.
"""

from conftest import bench_workload, out_path

from repro.experiments.runner import ground_truth
from repro.experiments.reporting import format_table, save_json
from repro.experiments.tradeoff import (
    sweep_block_dbscan,
    sweep_dbscanpp,
    sweep_knn_block,
    sweep_laf_alpha,
    sweep_laf_dbscanpp,
)

EPS, TAU = 0.5, 3


def _run_all_sweeps(X, gt_labels, estimator):
    points = []
    points += sweep_laf_alpha(
        X, gt_labels, estimator, EPS, TAU, alphas=(1.1, 2.0, 5.0, 10.0, 15.0)
    )
    points += sweep_dbscanpp(X, gt_labels, estimator, EPS, TAU, deltas=(0.1, 0.5, 0.9))
    points += sweep_laf_dbscanpp(
        X, gt_labels, estimator, EPS, TAU, deltas=(0.1, 0.5, 0.9)
    )
    points += sweep_knn_block(
        X, gt_labels, EPS, TAU, branchings=(3, 10, 20), checks=(0.01, 0.1, 0.3)
    )
    points += sweep_block_dbscan(X, gt_labels, EPS, TAU)
    return points


def test_figure3_tradeoff_glove150k(benchmark):
    workload = bench_workload("Glove-150k")
    X = workload.X_test
    gt = ground_truth(X, EPS, TAU)

    points = benchmark.pedantic(
        _run_all_sweeps, args=(X, gt.labels, workload.estimator), rounds=1, iterations=1
    )

    headers = ["method", "knob", "value", "time_s", "ARI", "AMI"]
    rows = [[p.as_row()[h] for h in headers] for p in points]
    print()
    print(format_table(headers, rows, title="Figure 3: trade-off on Glove-150k"))

    # The LAF-DBSCAN curve reaches the high-quality region on Glove.
    laf = [p for p in points if p.method == "LAF-DBSCAN"]
    assert max(p.ami for p in laf) > 0.5

    save_json(out_path("figure3_tradeoff_glove150k.json"), [p.as_row() for p in points])
