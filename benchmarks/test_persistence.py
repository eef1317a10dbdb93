"""Benchmark: reattaching a saved index vs rebuilding it from points.

The persistence layer's headline claim is that ``load()`` is a
manifest-validation plus ``mmap`` reattach — no distance computations,
no cell assignment — so it must beat a fresh ``build()`` by a wide
margin on any backend whose build does real work. The tracked metric is
``load_vs_build_speedup`` (build seconds over load seconds, same
machine, same run), recorded per backend to
``benchmarks/out/persistence_n{N}.json`` for the CI regression gate.

Checksum verification reads every artifact byte, so ``verify=True``
load time scales with artifact size where the mmap reattach itself is
O(metadata); both are recorded (``load_s`` is the verified load — the
default and what users get — ``load_noverify_s`` is informational).

A correctness spot-check runs on every cell before it is timed: the
loaded index must answer a query batch bit-identically to the index
that was saved.
"""

from __future__ import annotations

import os
import time

import numpy as np
from conftest import out_path

from repro.index import BruteForceIndex, GridIndex
from repro.persistence import load_index, save_index
from repro.testing import make_blobs_on_sphere, write_benchmark_rows

N = int(os.environ.get("REPRO_PERSIST_BENCH_N", "4096"))
DIM = 64
EPS = 0.25
REPEATS = 3

#: backend name -> constructor; the grid build is the interesting cell
#: (it assigns every point to a cell and derives the cell tables), brute
#: force bounds the floor (its "build" is a copy, so the speedup there is
#: mostly checksum cost).
BACKENDS = {
    "brute_force": lambda: BruteForceIndex(),
    "grid": lambda: GridIndex(eps=EPS),
}


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_load_vs_build(tmp_path):
    X, _ = make_blobs_on_sphere(N // 8, 8, DIM, spread=0.7, seed=0)
    X = np.vstack([X] * (N // X.shape[0] + 1))[:N]
    queries = X[:64]

    rows = []
    for name, make in sorted(BACKENDS.items()):
        original = make().build(X)
        expected = original.batch_range_query(queries, EPS)
        path = tmp_path / name
        save_index(original, path)

        loaded = load_index(path)
        got = loaded.batch_range_query(queries, EPS)
        for got_row, exp_row in zip(got, expected):
            assert np.array_equal(got_row, exp_row)

        t_build = _best_of(lambda: make().build(X))
        t_load = _best_of(lambda: load_index(path))
        t_load_noverify = _best_of(lambda: load_index(path, verify=False))

        row = {
            "index": name,
            "method": "load_vs_build",
            "n": N,
            "dim": DIM,
            "eps": EPS,
            "build_s": t_build,
            "load_s": t_load,
            "load_noverify_s": t_load_noverify,
        }
        # Only the grid cell carries the tracked (gated) metric: the
        # brute-force "build" is a microsecond copy, so its ratio is
        # sub-1 timing noise — recorded informationally, never gated.
        key = (
            "load_vs_build_speedup" if name != "brute_force" else "load_vs_build_ratio"
        )
        row[key] = t_build / t_load
        rows.append(row)
        print()
        print(
            f"{name}: build {t_build:.4f}s, load {t_load:.4f}s "
            f"(noverify {t_load_noverify:.4f}s) -> {row[key]:.1f}x"
        )

    write_benchmark_rows(out_path(f"persistence_n{N}.json"), rows)

    # Acceptance criterion: on the grid, whose build does real work, a
    # verified load is >= 3x faster than rebuilding.
    for row in rows:
        if row["index"] != "brute_force":
            assert row["load_vs_build_speedup"] >= 3.0, (
                f"{row['index']}: verified load only "
                f"{row['load_vs_build_speedup']:.1f}x faster than build"
            )
