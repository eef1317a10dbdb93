"""Scaling benchmark: sharded range-query backend, shards x workers grid.

Measures the headline claim of the sharded backend — that fanning
`batch_range_query` across row shards through the thread executor
(NumPy releases the GIL inside BLAS) beats *serial* sharding once real
cores exist — and records every (executor, n_shards, n_workers) cell to
``benchmarks/out/sharded_backend_n{N}.json`` for the CI regression gate.
A second test measures the **build-once fit** win for tree inners: the
shard-before-build path never constructs a whole-dataset index only to
throw it away, and builds exactly one inner index per live shard.

Methodology notes:

* The tracked metrics are same-machine, same-run ratios
  (``fanout_speedup``: serial-sharded time over this cell's time at the
  same shard count; ``fit_speedup``: legacy build-then-shard fit cost
  over the shard-before-build fit cost), which is what the regression
  gate can compare across runner generations. The single big unsharded
  GEMM is recorded as ``vs_single_ratio`` (informational): on few cores
  one GEMM usually wins, which is exactly the "when sharding loses"
  story in ``docs/engine.md``.
* Every row records ``usable_cpus``: the regression gate skips tracked
  ratios when the fresh run has fewer usable CPUs than the committed
  baseline was measured with (parallel speedups are runner-class
  comparable, not machine-proof).
* BLAS pools are pinned to one thread (best-effort, via threadpoolctl)
  for the duration: the benchmark isolates *executor* parallelism, and
  otherwise a multi-threaded serial GEMM masks it.
* The >= 1.8x acceptance assertion fires only where >= 4 CPUs are
  actually usable; on smaller machines (including 1-core CI shards and
  dev containers) the JSON is still written so the trajectory accrues.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np
import pytest
from conftest import out_path

from repro.distances import normalize_rows
from repro.index import BruteForceIndex, CoverTree, ShardedIndex
from repro.testing import make_blobs_on_sphere, write_benchmark_rows

N = int(os.environ.get("REPRO_SHARD_BENCH_N", "16384"))
#: Fit benchmark size: big enough that a cover-tree build is a real
#: cost, small enough that the tree-inner query grid stays in CI budget.
N_FIT = int(os.environ.get("REPRO_SHARD_FIT_N", "4096"))
COVER_BASE = 1.3
DIM = 64
#: ~80 neighbors per query at this (eps, spread): heavy enough that the
#: distance work dominates, light enough that result pickling doesn't.
EPS = 0.25
REPEATS = 2

#: (executor, n_shards, n_workers) grid; serial cells are the anchors
#: the fanout_speedup of same-shard-count cells is measured against.
GRID = [
    ("serial", 2, 1),
    ("serial", 4, 1),
    ("thread", 4, 4),
]


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def single_thread_blas():
    """Pin BLAS pools to one thread while measuring (best-effort)."""
    try:
        import threadpoolctl

        return threadpoolctl.threadpool_limits(limits=1)
    except Exception:
        return contextlib.nullcontext()


def _dataset(n: int, dim: int = DIM, seed: int = 0) -> np.ndarray:
    """3/4 clustered blobs + 1/4 uniform noise on the sphere."""
    X, _ = make_blobs_on_sphere(n // 8, 6, dim, spread=0.7, seed=seed)
    rng = np.random.default_rng(seed + 1)
    noise = normalize_rows(rng.normal(size=(n - X.shape[0], dim)))
    return np.vstack([X, noise])


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_sharded_backend_scaling():
    X = _dataset(N)
    single = BruteForceIndex().build(X)
    cpus = usable_cpus()

    with single_thread_blas():
        t_single = _best_of(lambda: single.batch_range_query(X, EPS))
        expected_sample = single.batch_range_query(X[:64], EPS)

        rows = []
        serial_times: dict[int, float] = {}
        for executor, n_shards, n_workers in GRID:
            index = ShardedIndex(
                inner="brute_force",
                n_shards=n_shards,
                executor=executor,
                n_workers=n_workers,
            ).build(X)
            try:
                # Exactness spot-check on every cell before timing it.
                got = index.batch_range_query(X[:64], EPS)
                for got_row, exp_row in zip(got, expected_sample):
                    assert np.array_equal(got_row, np.sort(exp_row))
                elapsed = _best_of(lambda: index.batch_range_query(X, EPS))
            finally:
                index.close()
            if executor == "serial":
                serial_times[n_shards] = elapsed
            row = {
                "index": "sharded_brute_force",
                "method": f"{executor}_s{n_shards}_w{n_workers}",
                "n": N,
                "dim": DIM,
                "eps": EPS,
                "n_shards": n_shards,
                "n_workers": n_workers,
                "query_s": elapsed,
                "single_index_s": t_single,
                "vs_single_ratio": t_single / elapsed,
                "usable_cpus": cpus,
            }
            if executor != "serial":
                row["fanout_speedup"] = serial_times[n_shards] / elapsed
            rows.append(row)
            print()
            print(
                f"{row['method']}: {elapsed:.3f}s"
                + (
                    f" ({row['fanout_speedup']:.2f}x over serial sharding)"
                    if "fanout_speedup" in row
                    else ""
                )
                + f"; single index {t_single:.3f}s"
            )

    write_benchmark_rows(out_path(f"sharded_backend_n{N}.json"), rows)

    # Acceptance criterion: the thread executor with 4 workers beats
    # serial sharding >= 1.8x at the same shard count — but only where
    # four cores actually exist to win on.
    headline = next(r for r in rows if r["method"] == "thread_s4_w4")
    if cpus >= 4:
        assert headline["fanout_speedup"] >= 1.8, (
            f"thread executor only {headline['fanout_speedup']:.2f}x over "
            f"serial sharding on {cpus} CPUs"
        )
    else:
        pytest.skip(
            f"only {cpus} usable CPU(s): recorded "
            f"{headline['fanout_speedup']:.2f}x, >=1.8x asserted on >=4 CPUs"
        )


def test_sharded_tree_fit_build_once():
    """Fit-time win of build-once sharding on a tree inner.

    The legacy sharded fit built the whole-dataset index and then threw
    it away when it rebuilt per-shard copies; the shard-before-build
    path builds only the shards. ``fit_speedup`` compares the two as
    (single build + sharded fit) / sharded fit — both halves measured
    fresh in this run, so the ratio is machine-resistant. The sharded
    fit here is build + one full query pass (the engine's fit workload).
    """
    X = _dataset(N_FIT)
    cpus = usable_cpus()
    inner_kwargs = {"base": COVER_BASE}

    with single_thread_blas():
        t_single_build = _best_of(lambda: CoverTree(**inner_kwargs).build(X))

        def fit_and_query():
            index = ShardedIndex(
                inner="cover_tree",
                inner_kwargs=inner_kwargs,
                n_shards=4,
                executor="serial",
                n_workers=1,
            ).build(X)
            try:
                index.batch_range_query(X, EPS)
                # The build-once contract, asserted inside the measured
                # workload's own run.
                stats = index.stats()
                assert stats["shard_inner_builds"] == stats["shard_live_shards"]
            finally:
                index.close()

        t_sharded = _best_of(fit_and_query)
    fit_speedup = (t_single_build + t_sharded) / t_sharded
    row = {
        "index": "sharded_cover_tree",
        "method": "fit_serial_s4_w1",
        "n": N_FIT,
        "dim": DIM,
        "eps": EPS,
        "n_shards": 4,
        "n_workers": 1,
        "fit_and_query_s": t_sharded,
        "single_build_s": t_single_build,
        "fit_speedup": fit_speedup,
        "usable_cpus": cpus,
    }
    print()
    print(
        f"{row['method']}: {t_sharded:.3f}s fit+query; "
        f"build-once saves the {t_single_build:.3f}s discarded "
        f"build ({fit_speedup:.2f}x)"
    )

    write_benchmark_rows(out_path(f"sharded_backend_fit_n{N_FIT}.json"), [row])
    # No fixed floor asserted here: fit_speedup > 1 holds by
    # construction, so the build-once guarantee is enforced by the
    # shard_inner_builds == shard_live_shards assertion inside the
    # measured workload, and the magnitude is tracked by the regression
    # gate (25% band) against the committed baseline.
