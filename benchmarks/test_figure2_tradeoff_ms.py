"""Figure 2: speed-quality trade-off on MS-150k (eps=0.5, tau=3).

Each method sweeps its own knob, exactly as Section 3.4 prescribes:
LAF-DBSCAN's alpha 1.1-15, DBSCAN++/LAF-DBSCAN++'s delta 0.1-0.9,
KNN-BLOCK's branching/checks. BLOCK-DBSCAN is a single point (RNT 10):
the paper sweeps its cover-tree basis, which on an exact tree only moves
time, and its range queries run on the brute-force engine here.

Paper shape to reproduce: in the high-quality region the LAF methods
sit on the lower (faster) envelope, and raising LAF-DBSCAN's alpha
moves it monotonically toward faster/lower-quality operation.
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
        X, gt_labels, estimator, EPS, TAU, alphas=(1.1, 1.5, 2.0, 3.0, 5.0, 8.0, 15.0)
    )
    points += sweep_dbscanpp(
        X, gt_labels, estimator, EPS, TAU, deltas=(0.1, 0.3, 0.5, 0.7, 0.9)
    )
    points += sweep_laf_dbscanpp(
        X, gt_labels, estimator, EPS, TAU, deltas=(0.1, 0.3, 0.5, 0.7, 0.9)
    )
    points += sweep_knn_block(
        X, gt_labels, EPS, TAU, branchings=(3, 10, 20), checks=(0.01, 0.1, 0.3)
    )
    points += sweep_block_dbscan(X, gt_labels, EPS, TAU)
    return points


def test_figure2_tradeoff_ms150k(benchmark):
    workload = bench_workload("MS-150k")
    X = workload.X_test
    gt = ground_truth(X, EPS, TAU)

    points = benchmark.pedantic(
        _run_all_sweeps, args=(X, gt.labels, workload.estimator), rounds=1, iterations=1
    )

    headers = ["method", "knob", "value", "time_s", "ARI", "AMI"]
    rows = [[p.as_row()[h] for h in headers] for p in points]
    print()
    print(format_table(headers, rows, title="Figure 2: trade-off on MS-150k"))

    # alpha sweep: more alpha -> never more executed work (time noise
    # aside, the skip count is monotone); check via quality ordering.
    laf = [p for p in points if p.method == "LAF-DBSCAN"]
    assert laf[0].ami >= laf[-1].ami - 0.05  # alpha=1.1 at least as good as 15

    save_json(out_path("figure2_tradeoff_ms150k.json"), [p.as_row() for p in points])
