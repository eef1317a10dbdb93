"""Domain example: deduplicating a passage-embedding corpus.

The paper motivates LAF with data-science workloads over neural
embeddings (e.g. clustering MS MARCO passage embeddings for retrieval
pipelines). This example plays that scenario end to end:

1. build a passage-embedding corpus (hierarchical topic structure);
2. cluster it with every method of the paper's evaluation;
3. use the clustering to pick one representative passage per cluster
   (corpus deduplication / diversification);
4. report each method's time, quality vs DBSCAN, and corpus reduction.

Run:  python examples/passage_embedding_pipeline.py
"""

import os
import time

import numpy as np

import repro
from repro import RMICardinalityEstimator
from repro.data import load_dataset
from repro.experiments import MethodContext, build_method
from repro.experiments.methods import APPROXIMATE_METHODS
from repro.metrics import adjusted_mutual_info, adjusted_rand_index

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "0.04"))
EPS, TAU = 0.55, 5

# One ExecutionConfig threads through every method below via
# MethodContext — e.g. repro.ExecutionConfig(
#     sharding=repro.ShardingConfig(n_shards=4, executor=pool.executor_spec()))
# shards every engine-routed fit across a repro.remote.pool.WorkerPool.
# None keeps the defaults.
EXECUTION = None


def representatives(X: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """One medoid-ish representative per cluster: the member closest to
    the cluster's mean direction. Noise passages are all kept."""
    keep = list(np.flatnonzero(labels == -1))
    for cluster in np.unique(labels[labels >= 0]):
        members = np.flatnonzero(labels == cluster)
        center = X[members].mean(axis=0)
        center /= np.linalg.norm(center)
        keep.append(int(members[np.argmax(X[members] @ center)]))
    return np.array(sorted(keep))


def main() -> None:
    dataset = load_dataset("MS-100k", scale=SCALE, seed=1)
    train, test = dataset.split()
    print(
        f"Corpus: {test.shape[0]} passage embeddings ({dataset.dim}-d), "
        f"estimator trained on {train.shape[0]} held-out passages"
    )

    estimator = RMICardinalityEstimator(epochs=40, n_train_queries=400, seed=0)
    estimator.fit(train)

    gt = repro.cluster(test, algo="dbscan", eps=EPS, tau=TAU, execution=EXECUTION)
    print(
        f"\nGround truth (DBSCAN): {gt.n_clusters} topics, "
        f"{gt.noise_ratio:.0%} unique passages\n"
    )

    header = f"{'method':14s} {'time':>8s} {'ARI':>7s} {'AMI':>7s} {'kept':>6s}"
    print(header)
    print("-" * len(header))
    ctx = MethodContext(
        eps=EPS,
        tau=TAU,
        alpha=dataset.spec.alpha,
        estimator=estimator,
        seed=0,
        execution=EXECUTION,
    )
    for name in APPROXIMATE_METHODS:
        clusterer = build_method(name, ctx, test)
        started = time.perf_counter()
        result = clusterer.fit(test)
        elapsed = time.perf_counter() - started
        kept = representatives(test, result.labels)
        print(
            f"{name:14s} {elapsed:7.3f}s "
            f"{adjusted_rand_index(gt.labels, result.labels):7.3f} "
            f"{adjusted_mutual_info(gt.labels, result.labels):7.3f} "
            f"{kept.size:6d}"
        )
    print(f"\nkept = deduplicated corpus size out of {test.shape[0]} passages")


if __name__ == "__main__":
    main()
