"""Timed execution and scoring of clustering methods.

Implements the paper's measurement protocol: the efficiency metric is
the elapsed clustering time *including* cardinality-estimator prediction
time and excluding its training time (prediction happens inside
``fit``; training happens before the run). Quality is ARI/AMI against
original DBSCAN on the same data.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.clustering.base import Clusterer, ClusteringResult
from repro.clustering.dbscan import DBSCAN
from repro.engine_config import ExecutionConfig
from repro.experiments.methods import MethodContext, build_method
from repro.metrics.ari import adjusted_rand_index
from repro.metrics.mutual_info import adjusted_mutual_info

__all__ = ["RunRecord", "ground_truth", "run_method", "run_suite"]


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """One (method, dataset, eps, tau) measurement."""

    method: str
    dataset: str
    eps: float
    tau: int
    elapsed_seconds: float
    ari: float
    ami: float
    n_clusters: int
    noise_ratio: float
    stats: dict[str, int | float]

    def as_row(self) -> dict[str, object]:
        """Flat representation for reporting tables.

        When the run executed under engine sharding, the build
        accounting (``shard_inner_builds`` — exactly one inner build per
        live shard per fit — and ``shard_rebalances``) rides along so
        JSON consumers can audit the build-once contract per record.
        """
        row = {
            "method": self.method,
            "dataset": self.dataset,
            "eps": self.eps,
            "tau": self.tau,
            "time_s": round(self.elapsed_seconds, 4),
            "ARI": round(self.ari, 4),
            "AMI": round(self.ami, 4),
            "clusters": self.n_clusters,
            "noise": round(self.noise_ratio, 4),
        }
        for key in ("shard_live_shards", "shard_inner_builds", "shard_rebalances"):
            if key in self.stats:
                row[key] = self.stats[key]
        return row


def ground_truth(
    X: np.ndarray,
    eps: float,
    tau: int,
    execution: ExecutionConfig | None = None,
) -> ClusteringResult:
    """The paper's ground truth: original DBSCAN on the same data.

    ``execution`` threads through the *exactness-preserving* knobs
    (sharding, batching, block sizes); an ``index`` override is dropped,
    so the reference every approximate method is scored against always
    runs on the brute-force engine the other exact paths are diffed
    against. Time DBSCAN under another backend through
    :func:`run_suite` / the clusterer directly instead.
    """
    if execution is not None and execution.index is not None:
        execution = dataclasses.replace(execution, index=None)
    return DBSCAN(eps=eps, tau=tau, execution=execution).fit(X)


def run_method(clusterer: Clusterer, X: np.ndarray) -> tuple[ClusteringResult, float]:
    """Fit and wall-clock one method; returns (result, seconds)."""
    started = time.perf_counter()
    result = clusterer.fit(X)
    return result, time.perf_counter() - started


def run_suite(
    X: np.ndarray,
    method_names: tuple[str, ...],
    ctx: MethodContext,
    dataset_name: str = "dataset",
    gt_labels: np.ndarray | None = None,
) -> list[RunRecord]:
    """Run a list of methods on one dataset and score against DBSCAN.

    ``gt_labels`` may be supplied to avoid recomputing the ground truth;
    when omitted it is derived — when "DBSCAN" is among the methods
    *and* ``ctx.execution`` keeps it exact (no index override), its
    own timed run provides the labels, otherwise :func:`ground_truth`
    recomputes an exact reference (sharding/batching still apply).
    ``ctx.execution`` is the one place a suite's
    :class:`~repro.engine_config.ExecutionConfig` is set; nothing is
    installed process- or thread-wide, so concurrent suites cannot
    interfere.
    """
    execution = ctx.execution
    records: list[RunRecord] = []
    labels_gt = gt_labels
    # The timed DBSCAN run can double as the ground truth only while it
    # is exact: an execution with an index override (possibly an
    # approximate backend) must not leak into the reference labels every
    # ARI/AMI is scored against — ground_truth() recomputes exactly then.
    exact_reference = execution is None or execution.index is None
    # DBSCAN first when present, so its labels serve as ground truth.
    ordered = sorted(method_names, key=lambda n: n != "DBSCAN")
    pending: list[tuple[str, ClusteringResult, float]] = []
    for name in ordered:
        clusterer = build_method(name, ctx, X)
        result, elapsed = run_method(clusterer, X)
        if name == "DBSCAN" and labels_gt is None and exact_reference:
            labels_gt = result.labels
        pending.append((name, result, elapsed))
    if labels_gt is None:
        labels_gt = ground_truth(X, ctx.eps, ctx.tau, execution=execution).labels
    for name, result, elapsed in pending:
        records.append(
            RunRecord(
                method=name,
                dataset=dataset_name,
                eps=ctx.eps,
                tau=ctx.tau,
                elapsed_seconds=elapsed,
                ari=adjusted_rand_index(labels_gt, result.labels),
                ami=adjusted_mutual_info(labels_gt, result.labels),
                n_clusters=result.n_clusters,
                noise_ratio=result.noise_ratio,
                stats=dict(result.stats),
            )
        )
    return records
