"""Quickstart: accelerate DBSCAN with LAF on a passage-embedding workload.

Runs the paper's full protocol at toy scale:

1. generate an MS MARCO-like dataset of 768-d unit vectors;
2. split 8:2, train the RMI cardinality estimator on the 80%;
3. cluster the 20% with original DBSCAN (ground truth) and LAF-DBSCAN;
4. report speed, skipped queries and ARI/AMI quality.

Run:  python examples/quickstart.py
"""

import os
import time

import repro
from repro import RMICardinalityEstimator
from repro.data import load_dataset
from repro.metrics import adjusted_mutual_info, adjusted_rand_index

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "0.04"))
EPS, TAU = 0.55, 5

# Execution policy is one declarative object threaded into every fit —
# e.g. ExecutionConfig(sharding=ShardingConfig(n_shards=4,
# executor=pool.executor_spec())) fans the range queries out to a
# repro.remote.pool.WorkerPool's warm shard indexes (sharding always
# names the pool its shards run on).
# None keeps the default unsharded, batched brute-force engine.
EXECUTION = None


def main() -> None:
    print(f"Loading MS-50k surrogate at scale {SCALE} ...")
    dataset = load_dataset("MS-50k", scale=SCALE, seed=0)
    train, test = dataset.split()
    print(
        f"  {dataset.n_points} points, dim={dataset.dim}; "
        f"train={train.shape[0]}, test={test.shape[0]}"
    )

    print("Training the RMI cardinality estimator on the training split ...")
    started = time.perf_counter()
    estimator = RMICardinalityEstimator(epochs=40, n_train_queries=400, seed=0)
    estimator.fit(train)
    print(
        f"  trained in {time.perf_counter() - started:.1f}s "
        f"({estimator.n_models} stage networks)"
    )

    print(f"Clustering the test split with eps={EPS}, tau={TAU} ...")
    started = time.perf_counter()
    exact = repro.cluster(test, algo="dbscan", eps=EPS, tau=TAU, execution=EXECUTION)
    t_dbscan = time.perf_counter() - started

    started = time.perf_counter()
    laf = repro.cluster(
        test,
        algo="laf-dbscan",
        eps=EPS,
        tau=TAU,
        estimator=estimator,
        alpha=dataset.spec.alpha,
        seed=0,
        execution=EXECUTION,
    )
    t_laf = time.perf_counter() - started

    print(
        f"  DBSCAN      {t_dbscan:6.3f}s  "
        f"clusters={exact.n_clusters}  noise={exact.noise_ratio:.2f}  "
        f"range_queries={exact.stats['range_queries']}"
    )
    print(
        f"  LAF-DBSCAN  {t_laf:6.3f}s  "
        f"clusters={laf.n_clusters}  noise={laf.noise_ratio:.2f}  "
        f"range_queries={laf.stats['range_queries']} "
        f"(skipped {laf.stats['skipped_queries']})"
    )
    print(
        f"  speedup {t_dbscan / t_laf:.2f}x   "
        f"ARI={adjusted_rand_index(exact.labels, laf.labels):.4f}   "
        f"AMI={adjusted_mutual_info(exact.labels, laf.labels):.4f}"
    )
    print(
        f"  post-processing repaired {laf.stats['merges']} wrongly split "
        f"cluster pairs from {laf.stats['fn_detected']} detected false negatives"
    )


if __name__ == "__main__":
    main()
