"""Benchmark: the warm-pool claim of the remote executor.

The remote worker pool's headline is not raw fan-out speed (on one box
a single big GEMM usually wins — see ``docs/engine.md``); it is that
shard indexes are **built once and held warm** across fits. The first
fit against a fresh pool pays every shard build plus the dataset
upload; the second fit attaches to cached indexes and pays only the
query fan-out. The tracked metric is ``warm_fit_speedup`` (first-fit
seconds over second-fit seconds, same pool, same machine, same run) on
the brute_force inner backend: the warm fit still skips the dataset
upload and every shard build (the float32 copy of the rows). That saving
is small next to the noise of one fit, so the cold and the warm time are
each the median over ``POOLS`` fresh pools.

A correctness spot-check runs before timing: remote labels must be
bit-identical to the serial sharded path, and the warm fit must report
``shard_inner_builds == 0``.

Every row records ``usable_cpus`` so the regression gate skips the
ratio on smaller machines than the committed baseline (warm-reuse
ratios are runner-class comparable, not machine-proof). Results land in
``benchmarks/out/remote_pool_n{N}.json``.
"""

from __future__ import annotations

import os
import time

import numpy as np
from conftest import out_path

from repro.clustering import DBSCAN
from repro.engine_config import ExecutionConfig, IndexSpec
from repro.index.sharded import ShardingConfig
from repro.remote.pool import WorkerPool
from repro.testing import make_blobs_on_sphere, write_benchmark_rows

N = int(os.environ.get("REPRO_REMOTE_BENCH_N", "4096"))
DIM = 64
EPS = 0.4
TAU = 4
N_SHARDS = 4
N_WORKERS = 2
POOLS = 5


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _dataset(n: int) -> np.ndarray:
    X, _ = make_blobs_on_sphere(n // 8, 8, DIM, spread=0.7, seed=0)
    return np.vstack([X] * (n // X.shape[0] + 1))[:n]


def test_remote_warm_fit():
    X = _dataset(N)
    spec = IndexSpec("brute_force")

    def execution(executor) -> ExecutionConfig:
        return ExecutionConfig(
            index=spec,
            sharding=ShardingConfig(n_shards=N_SHARDS, executor=executor),
        )

    baseline = DBSCAN(eps=EPS, tau=TAU, execution=execution("serial")).fit(X)
    cold_s: list[float] = []
    warm_s: list[float] = []
    for _ in range(POOLS):
        with WorkerPool.spawn_local(N_WORKERS) as pool:
            remote = execution(pool.executor_spec())

            start = time.perf_counter()
            cold = DBSCAN(eps=EPS, tau=TAU, execution=remote).fit(X)
            cold_s.append(time.perf_counter() - start)

            start = time.perf_counter()
            warm = DBSCAN(eps=EPS, tau=TAU, execution=remote).fit(X)
            warm_s.append(time.perf_counter() - start)

        assert np.array_equal(baseline.labels, cold.labels)
        assert np.array_equal(baseline.labels, warm.labels)
        assert cold.stats["shard_inner_builds"] == N_SHARDS
        assert warm.stats["shard_inner_builds"] == 0
    t_cold = float(np.median(cold_s))
    t_warm = float(np.median(warm_s))

    row = {
        "index": "brute_force",
        "method": "remote_warm_fit",
        "n": N,
        "dim": DIM,
        "eps": EPS,
        "n_shards": N_SHARDS,
        "n_workers": N_WORKERS,
        "pools": POOLS,
        "cold_fit_s": t_cold,
        "warm_fit_s": t_warm,
        "warm_fit_speedup": t_cold / t_warm,
        "usable_cpus": usable_cpus(),
    }
    print()
    print(
        f"remote pool ({N_WORKERS} workers, {N_SHARDS} shards, median of "
        f"{POOLS} pools): cold {t_cold:.3f}s, warm {t_warm:.3f}s -> "
        f"{row['warm_fit_speedup']:.2f}x"
    )
    write_benchmark_rows(out_path(f"remote_pool_n{N}.json"), [row])

    # The warm fit skipped every shard build; it must not be slower than
    # the cold fit beyond timing noise.
    assert row["warm_fit_speedup"] >= 1.0, (
        f"warm fit slower than cold fit ({row['warm_fit_speedup']:.2f}x)"
    )
