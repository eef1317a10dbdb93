"""Scaling benchmark: sharded range-query backend, shards x workers grid.

Measures the headline claim of the sharded backend — that fanning
`batch_range_query` across row shards through the thread executor
(NumPy releases the GIL inside BLAS) beats *serial* sharding once real
cores exist — and records every (executor, n_shards, n_workers) cell to
``benchmarks/out/sharded_backend_n{N}.json`` for the CI regression gate.
(The build-once property of sharded fits is asserted by
``tests/test_sharded_build_accounting.py``.)

Methodology notes:

* The tracked metric is a same-machine, same-run ratio
  (``fanout_speedup``: serial-sharded time over this cell's time at the
  same shard count), which is what the regression gate can compare
  across runner generations. The single big unsharded
  GEMM is recorded as ``vs_single_ratio`` (informational): on few cores
  one GEMM usually wins, which is exactly the "when sharding loses"
  story in ``docs/engine.md``.
* Every row records ``usable_cpus``: the regression gate skips tracked
  ratios when the fresh run has fewer usable CPUs than the committed
  baseline was measured with (parallel speedups are runner-class
  comparable, not machine-proof).
* BLAS pools are pinned to one thread (every loaded OpenBLAS, through
  its exported thread-count symbol, as the pool workers do) for the
  duration: the benchmark isolates *executor* parallelism, and
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
from repro.index import BruteForceIndex, ShardedIndex
from repro.remote.worker import _blas_thread_controls
from repro.testing import make_blobs_on_sphere, write_benchmark_rows

N = int(os.environ.get("REPRO_SHARD_BENCH_N", "16384"))
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


@contextlib.contextmanager
def single_thread_blas():
    """Pin every loaded OpenBLAS to one thread while measuring.

    The same ctypes controls the pool workers pin themselves with; the
    previous counts come back on exit. Without such a control the
    benchmark runs at the library's own thread count.
    """
    controls = _blas_thread_controls()
    previous = [getter() for _, getter in controls]
    for setter, _ in controls:
        setter(1)
    try:
        yield
    finally:
        for (setter, _), count in zip(controls, previous):
            setter(count)


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
